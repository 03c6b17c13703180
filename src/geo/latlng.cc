#include "geo/latlng.h"

#include <cmath>

#include "common/check.h"

namespace m2g::geo {
namespace {

constexpr double kEarthRadiusM = 6371000.0;
constexpr double kDegToRad = M_PI / 180.0;

}  // namespace

double ApproxMeters(const LatLng& a, const LatLng& b) {
  const double mean_lat = 0.5 * (a.lat + b.lat) * kDegToRad;
  const double dx = (b.lng - a.lng) * kDegToRad * std::cos(mean_lat);
  const double dy = (b.lat - a.lat) * kDegToRad;
  return kEarthRadiusM * std::sqrt(dx * dx + dy * dy);
}

LatLng Centroid(const std::vector<LatLng>& points) {
  M2G_CHECK(!points.empty());
  LatLng c;
  for (const LatLng& p : points) {
    c.lat += p.lat;
    c.lng += p.lng;
  }
  c.lat /= static_cast<double>(points.size());
  c.lng /= static_cast<double>(points.size());
  return c;
}

LatLng OffsetMeters(const LatLng& origin, double east_m, double north_m) {
  const double dlat = north_m / kEarthRadiusM / kDegToRad;
  const double dlng = east_m / (kEarthRadiusM * std::cos(origin.lat * kDegToRad)) / kDegToRad;
  return {origin.lat + dlat, origin.lng + dlng};
}

}  // namespace m2g::geo
