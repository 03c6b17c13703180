// The benchmark's inputs are a pure function of --seed: the same seed gives
// byte-identical request streams and datasets, a different seed different
// ones. Run with: ctest --test-dir .bench_build
#include <gtest/gtest.h>

#include <map>

#include "generators.h"

namespace perfbench {
namespace {

using ServingGenerator = ServingInputs (*)(uint64_t);

void ExpectSeeded(ServingGenerator make) {
  const std::string a = SerializeRequests(make(11).requests);
  const std::string b = SerializeRequests(make(11).requests);
  const std::string c = SerializeRequests(make(12).requests);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// Pending-order count of each request, in the order a pass sends them.
std::vector<size_t> SizeSequence(const ServingInputs& in) {
  std::vector<size_t> sizes;
  for (const auto& req : in.requests) sizes.push_back(req.pending.size());
  return sizes;
}

/// Requests per pending-order count over one pass.
std::map<size_t, int> SizeHistogram(const ServingInputs& in) {
  std::map<size_t, int> hist;
  for (const auto& req : in.requests) ++hist[req.pending.size()];
  return hist;
}

TEST(GeneratorTest, TripReplayIsSeeded) { ExpectSeeded(&MakeTripReplay); }
TEST(GeneratorTest, OrderStreamIsSeeded) { ExpectSeeded(&MakeOrderStream); }
TEST(GeneratorTest, ConcurrentBatchedIsSeeded) {
  ExpectSeeded(&MakeConcurrentBatched);
}

TEST(GeneratorTest, TrainEpochIsSeeded) {
  const TrainInputs a = MakeTrainEpoch(11);
  const TrainInputs b = MakeTrainEpoch(11);
  const TrainInputs c = MakeTrainEpoch(12);
  EXPECT_GT(a.train.size(), 0);
  EXPECT_GT(a.val.size(), 0);
  EXPECT_EQ(SerializeDataset(a.train), SerializeDataset(b.train));
  EXPECT_EQ(SerializeDataset(a.val), SerializeDataset(b.val));
  EXPECT_NE(SerializeDataset(a.train), SerializeDataset(c.train));
}

// Steadiness rests on this: the seed changes which inputs are sent, never
// how many requests or samples of each size a pass holds.
TEST(GeneratorTest, RequestSizesDoNotDependOnSeed) {
  EXPECT_EQ(SizeHistogram(MakeTripReplay(1)), SizeHistogram(MakeTripReplay(2)));
  EXPECT_EQ(SizeHistogram(MakeOrderStream(1)),
            SizeHistogram(MakeOrderStream(2)));
  // The concurrent clients batch whatever sizes they send together, so
  // there the order of sizes is fixed too, not only their histogram.
  EXPECT_EQ(SizeSequence(MakeConcurrentBatched(1)),
            SizeSequence(MakeConcurrentBatched(2)));
  // Training steps hold the same sample sizes for every seed.
  const TrainInputs a = MakeTrainEpoch(1);
  const TrainInputs b = MakeTrainEpoch(2);
  EXPECT_EQ(SampleSizes(a.train), SampleSizes(b.train));
  EXPECT_EQ(SampleSizes(a.val), SampleSizes(b.val));
}

// A trip of length L in the simulator's mix replays one request at each of
// n = L, ..., 1, so the pass holds sum over L >= n of mix[L] requests of
// size n.
TEST(GeneratorTest, TripReplayFollowsSimulatorMix) {
  const std::vector<int> mix = TripLengthMix();
  std::map<size_t, int> expected;
  for (size_t length = 1; length < mix.size(); ++length) {
    for (size_t n = 1; n <= length; ++n) expected[n] += mix[length];
  }
  std::erase_if(expected, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(SizeHistogram(MakeTripReplay(3)), expected);
  EXPECT_EQ(mix.size(), 21u);  // lengths up to the paper's 20-location cap
}

TEST(GeneratorTest, OrderStreamClimbsBetweenBounds) {
  const ServingInputs in = MakeOrderStream(5);
  ASSERT_EQ(in.requests.size() % kStreamCouriers, 0u);
  EXPECT_EQ(in.requests.front().pending.size(),
            static_cast<size_t>(kStreamStartOrders));
  EXPECT_EQ(in.requests.back().pending.size(),
            static_cast<size_t>(kStreamEndOrders));
}

}  // namespace
}  // namespace perfbench
