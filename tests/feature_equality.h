#ifndef M2G_TESTS_FEATURE_EQUALITY_H_
#define M2G_TESTS_FEATURE_EQUALITY_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "synth/dataset.h"

namespace m2g::testutil {

inline uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

inline std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

/// Every field of two samples, doubles compared bit for bit: context,
/// courier profile, clock, per-location features, the AOI level and the
/// labels.
inline void ExpectSameSample(const synth::Sample& a, const synth::Sample& b) {
  EXPECT_EQ(a.courier_id, b.courier_id);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.weekday, b.weekday);
  EXPECT_EQ(a.weather, b.weather);
  EXPECT_EQ(Bits(a.query_time_min), Bits(b.query_time_min));
  EXPECT_EQ(Bits(a.courier_pos.lat), Bits(b.courier_pos.lat));
  EXPECT_EQ(Bits(a.courier_pos.lng), Bits(b.courier_pos.lng));
  EXPECT_EQ(a.courier.id, b.courier.id);
  EXPECT_EQ(Bits(a.courier.avg_working_hours),
            Bits(b.courier.avg_working_hours));
  EXPECT_EQ(Bits(a.courier.avg_speed_mps), Bits(b.courier.avg_speed_mps));
  EXPECT_EQ(Bits(a.courier.attendance), Bits(b.courier.attendance));
  EXPECT_EQ(Bits(a.courier.service_time_mean_min),
            Bits(b.courier.service_time_mean_min));
  EXPECT_EQ(a.courier.home_district, b.courier.home_district);
  EXPECT_EQ(a.courier.served_aois, b.courier.served_aois);
  EXPECT_EQ(Bits(a.courier.aoi_preference), Bits(b.courier.aoi_preference));
  ASSERT_EQ(a.num_locations(), b.num_locations());
  for (int i = 0; i < a.num_locations(); ++i) {
    const synth::LocationTask& x = a.locations[i];
    const synth::LocationTask& y = b.locations[i];
    EXPECT_EQ(x.order_id, y.order_id) << "location " << i;
    EXPECT_EQ(Bits(x.pos.lat), Bits(y.pos.lat)) << "location " << i;
    EXPECT_EQ(Bits(x.pos.lng), Bits(y.pos.lng)) << "location " << i;
    EXPECT_EQ(x.aoi_id, y.aoi_id) << "location " << i;
    EXPECT_EQ(x.aoi_type, y.aoi_type) << "location " << i;
    EXPECT_EQ(Bits(x.accept_time_min), Bits(y.accept_time_min))
        << "location " << i;
    EXPECT_EQ(Bits(x.deadline_min), Bits(y.deadline_min)) << "location " << i;
    EXPECT_EQ(Bits(x.dist_from_courier_m), Bits(y.dist_from_courier_m))
        << "location " << i;
  }
  EXPECT_EQ(a.aoi_node_ids, b.aoi_node_ids);
  EXPECT_EQ(a.loc_to_aoi, b.loc_to_aoi);
  EXPECT_EQ(a.route_label, b.route_label);
  EXPECT_EQ(Bits(a.time_label_min), Bits(b.time_label_min));
  EXPECT_EQ(a.aoi_route_label, b.aoi_route_label);
  EXPECT_EQ(Bits(a.aoi_time_label_min), Bits(b.aoi_time_label_min));
}

/// An offline sample as the feature builder alone produces it: labels
/// cleared, `day` reset.
inline synth::Sample WithoutLabels(synth::Sample offline) {
  offline.day = 0;
  offline.route_label.clear();
  offline.time_label_min.clear();
  offline.aoi_route_label.clear();
  offline.aoi_time_label_min.clear();
  return offline;
}

}  // namespace m2g::testutil

#endif  // M2G_TESTS_FEATURE_EQUALITY_H_
