#include "baselines/time_mlp.h"

#include <algorithm>

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace m2g::baselines {

PluggedTimeHead::PluggedTimeHead(const Config& config, uint64_t shuffle_seed)
    : config_(config), shuffle_seed_(shuffle_seed) {}

void PluggedTimeHead::Fit(
    const synth::Dataset& train,
    const std::function<std::vector<int>(const synth::Sample&)>& route_fn) {
  // Precompute features once: routes are fixed (the route model is
  // already trained and frozen — the two-step paradigm of §V-B).
  std::vector<Matrix> features;
  features.reserve(train.samples.size());
  for (const synth::Sample& s : train.samples) {
    features.push_back(TimeFeatures(s, route_fn(s)));
  }

  nn::Adam opt(Parameters(), config_.learning_rate);
  Rng rng(shuffle_seed_);
  std::vector<int> order(train.samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int idx : order) {
      const synth::Sample& s = train.samples[idx];
      opt.ZeroGrad();
      Tensor pred = Forward(Tensor::Constant(features[idx]));
      Tensor loss = Tensor::Scalar(0);
      for (int i = 0; i < s.num_locations(); ++i) {
        loss = Add(loss,
                   L1Loss(Row(pred, i),
                          static_cast<float>(s.time_label_min[i]) /
                              config_.time_scale_minutes));
      }
      Scale(loss, 1.0f / s.num_locations()).Backward();
      opt.ClipGradNorm(5.0f);
      opt.Step();
    }
  }
}

std::vector<double> PluggedTimeHead::PredictTimes(
    const synth::Sample& sample, const std::vector<int>& route) const {
  Tensor pred = Forward(Tensor::Constant(TimeFeatures(sample, route)));
  std::vector<double> out(route.size());
  for (size_t i = 0; i < route.size(); ++i) {
    out[i] = std::max(
        0.0, static_cast<double>(pred.value().At(static_cast<int>(i), 0)) *
                 config_.time_scale_minutes);
  }
  return out;
}

PluggedTimeMlp::PluggedTimeMlp(const Config& config)
    : PluggedTimeHead(config, config.seed ^ 0xabcdef) {
  Rng rng(config.seed);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{kTimeFeatureDim, config.hidden_dim,
                       config.hidden_dim, 1},
      &rng);
  AddChild("mlp", mlp_.get());
}

Tensor PluggedTimeMlp::Forward(const Tensor& features) const {
  return mlp_->Forward(features);
}

}  // namespace m2g::baselines
