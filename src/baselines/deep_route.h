#ifndef M2G_BASELINES_DEEP_ROUTE_H_
#define M2G_BASELINES_DEEP_ROUTE_H_

#include <memory>
#include <vector>

#include "baselines/deep_common.h"

namespace m2g::baselines {

/// DeepRoute (§V-B / [3]): a Transformer-style self-attention encoder over
/// the unvisited locations plus an attention-based pointer decoder. Route
/// only; the paper (and we) bolt a separately-trained PluggedTimeMlp on
/// top for Table IV.
class DeepRoute : public RouteBaseline {
 public:
  explicit DeepRoute(const DeepBaselineConfig& config);

  /// Exposed for the scalability bench (route-only inference).
  Tensor EncodeSample(const synth::Sample& sample) const override;

 private:
  struct SelfAttentionLayer {
    Tensor wq, wk, wv;   // per layer, multi-head packed (d, d)
    Tensor wo;           // output projection (d, d)
    Tensor ff1, ff1_b;   // feed-forward (d, 2d)
    Tensor ff2, ff2_b;   // (2d, d)
  };

  Tensor RunLayer(const SelfAttentionLayer& layer, const Tensor& h) const;

  std::unique_ptr<nn::Linear> input_proj_;
  std::vector<SelfAttentionLayer> layers_;
};

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_DEEP_ROUTE_H_
