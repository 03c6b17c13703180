#ifndef M2G_TESTS_ORACLES_DISTANCE_H_
#define M2G_TESTS_ORACLES_DISTANCE_H_

#include <vector>

#include "geo/latlng.h"

namespace m2g::geo {

/// Great-circle distance in meters (haversine): the exact distance that
/// ApproxMeters is checked against (geo_test).
double HaversineMeters(const LatLng& a, const LatLng& b);

}  // namespace m2g::geo

namespace m2g::baselines {

/// Total ApproxMeters of the open path start -> points[order[0]] -> ...,
/// the length that the 2-opt TSP baseline must not exceed
/// (baselines_test, property_test).
double OpenPathMeters(const geo::LatLng& start,
                      const std::vector<geo::LatLng>& points,
                      const std::vector<int>& order);

}  // namespace m2g::baselines

#endif  // M2G_TESTS_ORACLES_DISTANCE_H_
