#ifndef M2G_BASELINES_GRAPH2ROUTE_H_
#define M2G_BASELINES_GRAPH2ROUTE_H_

#include <memory>
#include <vector>

#include "baselines/deep_common.h"

namespace m2g::baselines {

/// Graph2Route (§V-B / [10]): the strongest prior route model — a GCN
/// encoder over the single-level location graph plus an attention pointer
/// decoder. It has the graph inductive bias but no AOI level and no joint
/// time task; Table IV uses the plugged time head like the other
/// route-only baselines.
class Graph2Route : public RouteBaseline {
 public:
  explicit Graph2Route(const DeepBaselineConfig& config);

  Tensor EncodeSample(const synth::Sample& sample) const override;

 private:
  std::unique_ptr<nn::Linear> input_proj_;
  std::vector<Tensor> gcn_weights_;       // per layer (d, d), neighbours
  std::vector<Tensor> gcn_self_weights_;  // per layer (d, d), self path
  std::vector<Tensor> gcn_biases_;        // per layer (1, d)
};

/// Symmetrically normalized dense adjacency D^{-1/2} (A) D^{-1/2} built
/// from the Eq. 15 connectivity (self-loops included). Exposed for tests.
Matrix NormalizedAdjacency(const std::vector<bool>& adjacency, int n);

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_GRAPH2ROUTE_H_
