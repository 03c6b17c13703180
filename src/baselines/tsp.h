#ifndef M2G_BASELINES_TSP_H_
#define M2G_BASELINES_TSP_H_

#include <vector>

#include "baselines/greedy.h"

namespace m2g::baselines {

/// OR-Tools substitute (§V-B): a shortest-route heuristic. OR-Tools'
/// default routing search at this problem size is path-cheapest-arc
/// construction plus local search; we implement the equivalent
/// nearest-neighbour construction with 2-opt improvement on the open path
/// anchored at the courier's position.
core::RtpPrediction OrToolsLikePredict(const synth::Sample& sample,
                                       const HeuristicConfig& config);

/// Open-path TSP over `points` starting from `start` (the path visits
/// every point once, no return). Exposed for tests/benches.
std::vector<int> SolveOpenTsp(const geo::LatLng& start,
                              const std::vector<geo::LatLng>& points);

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_TSP_H_
