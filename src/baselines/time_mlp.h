#ifndef M2G_BASELINES_TIME_MLP_H_
#define M2G_BASELINES_TIME_MLP_H_

#include <functional>
#include <memory>

#include "baselines/seq_features.h"
#include "nn/mlp.h"

namespace m2g::baselines {

/// The paper's "plugged" time-prediction module (§V-B): a network trained
/// *separately* from the route model. For each route-only baseline, the
/// time head consumes per-location features derived from that baseline's
/// predicted route. Subclasses supply the layers; training and prediction
/// are shared.
class PluggedTimeHead : public nn::Module {
 public:
  struct Config {
    int hidden_dim = 32;
    int epochs = 6;
    float learning_rate = 2e-3f;
    float time_scale_minutes = 60.0f;
    uint64_t seed = 99;
  };

  /// `route_fn` maps a sample to the route the (already trained) route
  /// model predicts for it; the time head learns arrival gaps on top of
  /// those routes, one Adam step per sample.
  void Fit(const synth::Dataset& train,
           const std::function<std::vector<int>(const synth::Sample&)>&
               route_fn);

  /// Per-location arrival gaps (minutes, indexed by location node).
  std::vector<double> PredictTimes(const synth::Sample& sample,
                                   const std::vector<int>& route) const;

 protected:
  /// `shuffle_seed` seeds Fit's per-epoch sample order.
  PluggedTimeHead(const Config& config, uint64_t shuffle_seed);

  /// Scaled arrival gaps, one row per route position, for a TimeFeatures
  /// matrix.
  virtual Tensor Forward(const Tensor& features) const = 0;

 private:
  Config config_;
  uint64_t shuffle_seed_;
};

/// The three-layer fully connected time head bolted onto DeepRoute and
/// Graph2Route.
class PluggedTimeMlp : public PluggedTimeHead {
 public:
  explicit PluggedTimeMlp(const Config& config);

 private:
  Tensor Forward(const Tensor& features) const override;

  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_TIME_MLP_H_
