#include "tests/oracles/distance.h"

#include <algorithm>
#include <cmath>

namespace m2g::geo {
namespace {

constexpr double kEarthRadiusM = 6371000.0;
constexpr double kDegToRad = M_PI / 180.0;

}  // namespace

double HaversineMeters(const LatLng& a, const LatLng& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlng = (b.lng - a.lng) * kDegToRad;
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlng / 2) *
                       std::sin(dlng / 2);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(s)));
}

}  // namespace m2g::geo

namespace m2g::baselines {

double OpenPathMeters(const geo::LatLng& start,
                      const std::vector<geo::LatLng>& points,
                      const std::vector<int>& order) {
  double total = 0;
  geo::LatLng pos = start;
  for (int idx : order) {
    total += geo::ApproxMeters(pos, points[idx]);
    pos = points[idx];
  }
  return total;
}

}  // namespace m2g::baselines
