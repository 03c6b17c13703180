#ifndef M2G_GEO_LATLNG_H_
#define M2G_GEO_LATLNG_H_

#include <vector>

namespace m2g::geo {

/// A WGS-84 coordinate. The synthetic city lives around Hangzhou
/// (30.25 N, 120.17 E) so projection errors match the paper's setting.
struct LatLng {
  double lat = 0.0;
  double lng = 0.0;
};

/// Fast equirectangular approximation in meters; accurate to <0.1% at
/// city scale (geo_test checks it against the haversine great-circle
/// distance) and ~3x cheaper. Used in feature extraction hot paths.
double ApproxMeters(const LatLng& a, const LatLng& b);

/// Arithmetic centroid (fine for city-scale clusters).
LatLng Centroid(const std::vector<LatLng>& points);

/// Offsets `origin` by the given east/north displacement in meters.
LatLng OffsetMeters(const LatLng& origin, double east_m, double north_m);

}  // namespace m2g::geo

#endif  // M2G_GEO_LATLNG_H_
