#include "baselines/deep_common.h"

#include <algorithm>

#include "common/check.h"

namespace m2g::baselines {

core::ModelConfig DeepBaselineConfig::ToModelConfig() const {
  core::ModelConfig mc;
  mc.seed = seed;
  mc.hidden_dim = hidden_dim;
  mc.num_heads = num_heads;
  mc.num_layers = num_layers;
  mc.lstm_hidden_dim = lstm_hidden_dim;
  mc.courier_dim = courier_dim;
  // Scale the discrete embedding widths with the hidden size so the
  // continuous features always keep at least half the embedding.
  mc.aoi_id_embed_dim = std::min(12, hidden_dim / 4);
  mc.aoi_type_embed_dim = std::min(4, hidden_dim / 8);
  mc.courier_id_embed_dim = std::min(12, std::max(2, courier_dim / 2));
  M2G_CHECK_MSG(core::ValidateConfig(mc).ok(),
                "DeepBaselineConfig maps to an invalid ModelConfig");
  return mc;
}

core::TrainConfig DeepBaselineConfig::ToTrainConfig() const {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.learning_rate = learning_rate;
  tc.batch_size = batch_size;
  tc.grad_clip_norm = grad_clip_norm;
  tc.early_stop_patience = early_stop_patience;
  tc.max_samples_per_epoch = max_samples_per_epoch;
  tc.shuffle_seed = seed ^ 0x55aa;
  return tc;
}

void RouteBaseline::Fit(const synth::Dataset& train,
                        const synth::Dataset& val) {
  core::Trainer trainer(
      this,
      [this](const synth::Sample& s, core::LossBreakdown*, Rng*) {
        return RouteLoss(s);
      },
      config_.ToTrainConfig());
  trainer.Fit(train, val);
  time_head_->Fit(train, [this](const synth::Sample& s) {
    return PredictRoute(s);
  });
}

Tensor RouteBaseline::RouteLoss(const synth::Sample& sample) const {
  Tensor h = EncodeSample(sample);
  Tensor u = global_embed_->Embed(sample);
  return decoder_->TeacherForcedLoss(h, u, sample.route_label);
}

std::vector<int> RouteBaseline::PredictRoute(
    const synth::Sample& sample) const {
  Tensor h = EncodeSample(sample);
  Tensor u = global_embed_->Embed(sample);
  return decoder_->DecodeGreedy(h, u);
}

core::RtpPrediction RouteBaseline::Predict(
    const synth::Sample& sample) const {
  core::RtpPrediction pred;
  pred.location_route = PredictRoute(sample);
  pred.location_times_min =
      time_head_->PredictTimes(sample, pred.location_route);
  return pred;
}

}  // namespace m2g::baselines
