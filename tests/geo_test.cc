#include <gtest/gtest.h>

#include <cmath>

#include "geo/latlng.h"
#include "tests/oracles/distance.h"

namespace m2g::geo {
namespace {

constexpr LatLng kHangzhou{30.25, 120.17};

TEST(GeoTest, HaversineZeroForSamePoint) {
  EXPECT_NEAR(HaversineMeters(kHangzhou, kHangzhou), 0.0, 1e-9);
}

TEST(GeoTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  LatLng north{31.25, 120.17};
  EXPECT_NEAR(HaversineMeters(kHangzhou, north), 111195.0, 200.0);
}

TEST(GeoTest, ApproxMatchesHaversineAtCityScale) {
  LatLng b = OffsetMeters(kHangzhou, 3000.0, -2000.0);
  const double h = HaversineMeters(kHangzhou, b);
  const double a = ApproxMeters(kHangzhou, b);
  EXPECT_NEAR(a, h, h * 0.002);
}

TEST(GeoTest, OffsetMetersRoundTrip) {
  LatLng p = OffsetMeters(kHangzhou, 1234.0, -567.0);
  EXPECT_NEAR(ApproxMeters(kHangzhou, p),
              std::sqrt(1234.0 * 1234.0 + 567.0 * 567.0), 5.0);
}

TEST(GeoTest, OffsetDirectionSigns) {
  LatLng east = OffsetMeters(kHangzhou, 1000.0, 0.0);
  EXPECT_GT(east.lng, kHangzhou.lng);
  EXPECT_NEAR(east.lat, kHangzhou.lat, 1e-9);
  LatLng south = OffsetMeters(kHangzhou, 0.0, -1000.0);
  EXPECT_LT(south.lat, kHangzhou.lat);
}

TEST(GeoTest, CentroidOfSymmetricPoints) {
  std::vector<LatLng> pts = {
      OffsetMeters(kHangzhou, 100, 0), OffsetMeters(kHangzhou, -100, 0),
      OffsetMeters(kHangzhou, 0, 100), OffsetMeters(kHangzhou, 0, -100)};
  LatLng c = Centroid(pts);
  EXPECT_NEAR(ApproxMeters(c, kHangzhou), 0.0, 1.0);
}

TEST(GeoTest, SymmetryOfDistances) {
  LatLng b = OffsetMeters(kHangzhou, 2500, 900);
  EXPECT_DOUBLE_EQ(HaversineMeters(kHangzhou, b),
                   HaversineMeters(b, kHangzhou));
  EXPECT_DOUBLE_EQ(ApproxMeters(kHangzhou, b), ApproxMeters(b, kHangzhou));
}

TEST(GeoTest, TriangleInequalityApprox) {
  LatLng b = OffsetMeters(kHangzhou, 1500, 500);
  LatLng c = OffsetMeters(kHangzhou, -700, 2100);
  EXPECT_LE(ApproxMeters(kHangzhou, c),
            ApproxMeters(kHangzhou, b) + ApproxMeters(b, c) + 1e-6);
}

}  // namespace
}  // namespace m2g::geo
