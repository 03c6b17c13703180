#include "baselines/tsp.h"

#include <algorithm>

#include "common/check.h"

namespace m2g::baselines {

std::vector<int> SolveOpenTsp(const geo::LatLng& start,
                              const std::vector<geo::LatLng>& points) {
  const int n = static_cast<int>(points.size());
  M2G_CHECK_GT(n, 0);

  // Nearest-neighbour construction.
  std::vector<bool> visited(n, false);
  std::vector<int> order;
  order.reserve(n);
  geo::LatLng pos = start;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_d = 0;
    for (int i = 0; i < n; ++i) {
      if (visited[i]) continue;
      const double d = geo::ApproxMeters(pos, points[i]);
      if (best < 0 || d < best_d) {
        best = i;
        best_d = d;
      }
    }
    visited[best] = true;
    order.push_back(best);
    pos = points[best];
  }

  // 2-opt on the open path: reverse segments while it shortens the path.
  auto dist = [&](int a, int b) {
    return geo::ApproxMeters(points[a], points[b]);
  };
  auto dist_from_start = [&](int a) {
    return geo::ApproxMeters(start, points[a]);
  };
  bool improved = true;
  int guard = 0;
  while (improved && guard++ < 200) {
    improved = false;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        // Reversing order[i..j]: edges (i-1,i) and (j,j+1) change.
        const double before =
            (i == 0 ? dist_from_start(order[i])
                    : dist(order[i - 1], order[i])) +
            (j == n - 1 ? 0.0 : dist(order[j], order[j + 1]));
        const double after =
            (i == 0 ? dist_from_start(order[j])
                    : dist(order[i - 1], order[j])) +
            (j == n - 1 ? 0.0 : dist(order[i], order[j + 1]));
        if (after + 1e-9 < before) {
          std::reverse(order.begin() + i, order.begin() + j + 1);
          improved = true;
        }
      }
    }
  }
  return order;
}

core::RtpPrediction OrToolsLikePredict(const synth::Sample& sample,
                                       const HeuristicConfig& config) {
  std::vector<geo::LatLng> points;
  points.reserve(sample.locations.size());
  for (const synth::LocationTask& task : sample.locations) {
    points.push_back(task.pos);
  }
  core::RtpPrediction pred;
  pred.location_route = SolveOpenTsp(sample.courier_pos, points);
  pred.location_times_min =
      FixedSpeedTimes(sample, pred.location_route, config);
  return pred;
}

}  // namespace m2g::baselines
