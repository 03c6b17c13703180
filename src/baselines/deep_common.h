#ifndef M2G_BASELINES_DEEP_COMMON_H_
#define M2G_BASELINES_DEEP_COMMON_H_

#include <memory>
#include <vector>

#include "baselines/time_mlp.h"
#include "core/config.h"
#include "core/feature_embed.h"
#include "core/model.h"
#include "core/route_decoder.h"
#include "core/trainer.h"
#include "nn/module.h"

namespace m2g::baselines {

/// Hyper-parameters shared by the deep route-only baselines (DeepRoute,
/// FDNET, Graph2Route). Sized to match the M2G4RTP defaults, and trained
/// by the same core::Trainer loop, so the comparison isolates
/// architecture, not capacity or training procedure.
struct DeepBaselineConfig {
  int hidden_dim = 48;
  int lstm_hidden_dim = 48;
  int courier_dim = 24;
  int num_layers = 2;
  int num_heads = 4;
  int epochs = 8;
  float learning_rate = 2e-3f;
  int batch_size = 8;
  float grad_clip_norm = 5.0f;
  int early_stop_patience = 3;
  int max_samples_per_epoch = 0;
  uint64_t seed = 7;
  PluggedTimeMlp::Config time_head;

  /// Projection to the core ModelConfig consumed by the reused embedding
  /// layers.
  core::ModelConfig ToModelConfig() const;

  /// The route model's core::Trainer settings (one thread, shuffled by a
  /// stream derived from `seed`).
  core::TrainConfig ToTrainConfig() const;
};

/// What the deep route-only baselines share around their encoders: the
/// location and global feature embeddings, an attention pointer decoder,
/// and a plugged time head fitted on the frozen route model's predicted
/// routes (the two-step paradigm of §V-B). Subclasses build the members
/// (their order fixes the initialisation stream) and the encoder.
class RouteBaseline : public nn::Module {
 public:
  /// Trains the route model through core::Trainer on RouteLoss, then the
  /// time head on its predicted routes.
  void Fit(const synth::Dataset& train, const synth::Dataset& val);

  /// Teacher-forced route loss for one sample (what Fit trains).
  Tensor RouteLoss(const synth::Sample& sample) const;

  core::RtpPrediction Predict(const synth::Sample& sample) const;

  std::vector<int> PredictRoute(const synth::Sample& sample) const;

  /// Node representations the decoder points over, one row per location.
  virtual Tensor EncodeSample(const synth::Sample& sample) const = 0;

 protected:
  explicit RouteBaseline(const DeepBaselineConfig& config)
      : config_(config) {}

  DeepBaselineConfig config_;
  std::unique_ptr<core::LevelFeatureEmbed> feature_embed_;
  std::unique_ptr<core::GlobalFeatureEmbed> global_embed_;
  std::unique_ptr<core::AttentionRouteDecoder> decoder_;
  std::unique_ptr<PluggedTimeHead> time_head_;
};

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_DEEP_COMMON_H_
