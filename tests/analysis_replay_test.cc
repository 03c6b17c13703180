#include <gtest/gtest.h>

#include "feature_equality.h"
#include "serve/replay.h"
#include "synth/analysis.h"

namespace m2g {
namespace {

synth::DataConfig SmallConfig() {
  synth::DataConfig config;
  config.seed = 1717;
  config.world.num_aois = 60;
  config.couriers.num_couriers = 6;
  config.num_days = 6;
  return config;
}

synth::TripRecord MakeTrip(const std::vector<int>& aoi_sequence,
                           int courier_id = 0) {
  synth::TripRecord trip;
  trip.courier_id = courier_id;
  trip.start_time_min = 100;
  double t = 100;
  int id = 0;
  for (int aoi : aoi_sequence) {
    synth::ServedOrder so;
    so.order.id = id++;
    so.order.aoi_id = aoi;
    so.order.deadline_min = 500;
    t += 10;
    so.arrival_time_min = t;
    so.departure_time_min = t + 3;
    trip.served.push_back(so);
  }
  return trip;
}

TEST(HabitConsistencyTest, PerfectlyHabitualCourier) {
  // Same AOI order every trip -> consistency 1.
  std::vector<synth::TripRecord> trips = {
      MakeTrip({1, 2, 3}), MakeTrip({1, 2, 3}), MakeTrip({1, 3, 2})};
  // Pairs: (1,2): always 1 first (3/3); (1,3): 3/3; (2,3): 2/3 majority.
  synth::HabitConsistency h = synth::ComputeHabitConsistency(trips);
  EXPECT_EQ(h.couriers_measured, 1);
  EXPECT_EQ(h.pairs_measured, 3);
  EXPECT_NEAR(h.mean_pair_consistency, (1.0 + 1.0 + 2.0 / 3.0) / 3.0,
              1e-12);
}

TEST(HabitConsistencyTest, CoinFlipCourierScoresHalf) {
  std::vector<synth::TripRecord> trips = {MakeTrip({1, 2}),
                                          MakeTrip({2, 1})};
  synth::HabitConsistency h = synth::ComputeHabitConsistency(trips);
  EXPECT_EQ(h.pairs_measured, 1);
  EXPECT_NEAR(h.mean_pair_consistency, 0.5, 1e-12);
}

TEST(HabitConsistencyTest, SingleObservationPairsIgnored) {
  std::vector<synth::TripRecord> trips = {MakeTrip({1, 2})};
  synth::HabitConsistency h = synth::ComputeHabitConsistency(trips);
  EXPECT_EQ(h.pairs_measured, 0);
}

TEST(HabitConsistencyTest, SimulatedCouriersAreHabitual) {
  auto trips = synth::SimulateAllTrips(SmallConfig(), nullptr, nullptr);
  synth::HabitConsistency h = synth::ComputeHabitConsistency(trips);
  EXPECT_GT(h.pairs_measured, 50);
  // The behavioural policy plants strong habits; well above coin-flip.
  EXPECT_GT(h.mean_pair_consistency, 0.8);
}

TEST(DeadlineStatsTest, CountsOnTimeFractionExactly) {
  synth::TripRecord trip = MakeTrip({1, 2});
  trip.served[0].order.deadline_min = trip.served[0].arrival_time_min + 5;
  trip.served[1].order.deadline_min = trip.served[1].arrival_time_min - 5;
  synth::DeadlineStats d = synth::ComputeDeadlineStats({trip});
  EXPECT_EQ(d.orders, 2);
  EXPECT_NEAR(d.on_time_fraction, 0.5, 1e-12);
  EXPECT_NEAR(d.mean_slack_min, 0.0, 1e-9);
}

TEST(DeadlineStatsTest, SimulatedWorldIsMostlyOnTime) {
  auto trips = synth::SimulateAllTrips(SmallConfig(), nullptr, nullptr);
  synth::DeadlineStats d = synth::ComputeDeadlineStats(trips);
  EXPECT_GT(d.orders, 100);
  EXPECT_GT(d.on_time_fraction, 0.8);  // promises are mostly kept
}

TEST(SweepStatsTest, PerfectAndBrokenSweeps) {
  // 1,1,2,2 -> two blocks, both complete.
  synth::SweepStats complete = synth::ComputeSweepStats(
      {MakeTrip({1, 1, 2, 2})});
  EXPECT_EQ(complete.blocks, 2);
  EXPECT_NEAR(complete.mean_block_completeness, 1.0, 1e-12);
  EXPECT_NEAR(complete.complete_block_fraction, 1.0, 1e-12);
  // 1,2,1 -> first block of AOI 1 serves 1 of 2 pending.
  synth::SweepStats broken = synth::ComputeSweepStats(
      {MakeTrip({1, 2, 1})});
  EXPECT_EQ(broken.blocks, 3);
  EXPECT_NEAR(broken.mean_block_completeness, (0.5 + 1.0 + 1.0) / 3.0,
              1e-12);
  EXPECT_NEAR(broken.complete_block_fraction, 2.0 / 3.0, 1e-12);
}

TEST(SweepStatsTest, SimulatedSweepsAreNearComplete) {
  auto trips = synth::SimulateAllTrips(SmallConfig(), nullptr, nullptr);
  synth::SweepStats s = synth::ComputeSweepStats(trips);
  EXPECT_GT(s.blocks, 100);
  EXPECT_GT(s.complete_block_fraction, 0.85);
}

TEST(ReplayTest, RequestFromSampleRoundTripsThroughExtractor) {
  synth::BuiltWorld built = synth::BuildWorldAndDataset(SmallConfig());
  ASSERT_GT(built.splits.test.size(), 0);
  serve::FeatureExtractor extractor(&built.world);
  for (const synth::Dataset* split :
       {&built.splits.train, &built.splits.val, &built.splits.test}) {
    for (const synth::Sample& offline : split->samples) {
      const synth::Sample online =
          extractor.BuildSample(serve::RequestFromSample(offline));
      testutil::ExpectSameSample(online, testutil::WithoutLabels(offline));
    }
  }
}

TEST(ReplayTest, ReplayTripMatchesSnapshotAtEveryPrefix) {
  // Offline snapshots and the requests a live trip replay sends must give
  // the same sample at every prefix, mid-trip ones included.
  const synth::DataConfig config = SmallConfig();
  synth::World world(synth::WorldConfig{}, {});
  std::vector<synth::CourierProfile> couriers;
  const auto trips = synth::SimulateAllTrips(config, &world, &couriers);
  serve::FeatureExtractor extractor(&world);
  int compared = 0;
  int mid_trip = 0;
  for (const synth::TripRecord& trip : trips) {
    const synth::CourierProfile& courier = couriers[trip.courier_id];
    const std::vector<serve::RtpRequest> requests =
        serve::ReplayTrip(trip, courier);
    for (int p = 0; p < static_cast<int>(trip.served.size()); ++p) {
      synth::Sample offline;
      offline.day = -1;
      if (!synth::SnapshotFromTrip(world, trip, courier, p, config,
                                   &offline)) {
        EXPECT_EQ(offline.day, -1);  // untouched on false
        EXPECT_TRUE(offline.locations.empty());
        continue;
      }
      testutil::ExpectSameSample(extractor.BuildSample(requests[p]),
                                 testutil::WithoutLabels(offline));
      ++compared;
      if (p > 0) ++mid_trip;
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_GT(mid_trip, 50);
}

TEST(ReplayTest, ReplayTripProducesShrinkingRequests) {
  synth::World world(synth::WorldConfig{}, {});
  std::vector<synth::CourierProfile> couriers;
  auto trips =
      synth::SimulateAllTrips(SmallConfig(), &world, &couriers);
  ASSERT_FALSE(trips.empty());
  const synth::TripRecord& trip = trips.front();
  auto requests =
      serve::ReplayTrip(trip, couriers[trip.courier_id]);
  ASSERT_EQ(requests.size(), trip.served.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].pending.size(), trip.served.size() - i);
    // Clock advances monotonically.
    if (i > 0) {
      EXPECT_GE(requests[i].query_time_min,
                requests[i - 1].query_time_min);
    }
    // Pending orders are exactly the not-yet-served suffix.
    EXPECT_EQ(requests[i].pending.front().id, trip.served[i].order.id);
  }
  // First request starts at the trip start.
  EXPECT_DOUBLE_EQ(requests[0].query_time_min, trip.start_time_min);
}

TEST(ReplayTest, NodeIndexOfOrderFindsAndRejects) {
  synth::BuiltWorld built = synth::BuildWorldAndDataset(SmallConfig());
  const synth::Sample& s = built.splits.test.samples.front();
  for (int i = 0; i < s.num_locations(); ++i) {
    EXPECT_EQ(serve::NodeIndexOfOrder(s, s.locations[i].order_id), i);
  }
  EXPECT_EQ(serve::NodeIndexOfOrder(s, -999), -1);
}

}  // namespace
}  // namespace m2g
