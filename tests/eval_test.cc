#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/trainer.h"
#include "eval/ablation.h"
#include "eval/case_study.h"
#include "eval/latency.h"
#include "eval/rtp_model.h"

namespace m2g::eval {
namespace {

synth::DatasetSplits* SharedSplits() {
  static synth::DatasetSplits* splits = [] {
    synth::DataConfig dc;
    dc.seed = 606;
    dc.world.num_aois = 70;
    dc.world.num_districts = 3;
    dc.couriers.num_couriers = 6;
    dc.num_days = 6;
    return new synth::DatasetSplits(synth::BuildDataset(dc));
  }();
  return splits;
}

EvalScale QuickScale() {
  EvalScale scale;
  scale.epochs = 1;
  scale.max_samples_per_epoch = 20;
  scale.num_seeds = 1;
  return scale;
}

TEST(RtpModelTest, FactoryCoversAllMethodNames) {
  for (const std::string& name : AllMethodNames()) {
    auto model = CreateModel(name, QuickScale());
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
}

TEST(RtpModelTest, FactoryCoversAblationVariants) {
  for (const std::string& name : AblationVariantNames()) {
    auto model = CreateModel(name, QuickScale());
    ASSERT_NE(model, nullptr) << name;
  }
}

// The bench seed reaches M2G4RTP's sample order and guidance coins, not
// only its weight init: Fit is a Trainer run shuffled by
// scale.seed ^ 0x4d32, so every Table III/IV seed trains on its own
// order.
TEST(RtpModelTest, M2g4RtpShuffleSeedFollowsScaleSeed) {
  EvalScale scale = QuickScale();
  scale.seed = 9;
  const synth::DatasetSplits& splits = *SharedSplits();
  auto fitted = CreateModel("M2G4RTP", scale);
  fitted->Fit(splits.train, splits.val);

  core::ModelConfig mc;
  mc.seed = scale.seed;
  core::M2g4Rtp replayed(mc);
  core::TrainConfig tc;
  tc.epochs = scale.epochs;
  tc.max_samples_per_epoch = scale.max_samples_per_epoch;
  tc.threads = scale.threads;
  tc.shuffle_seed = scale.seed ^ 0x4d32;
  core::Trainer(&replayed, tc).Fit(splits.train, splits.val);

  for (const synth::Sample& s : splits.test.samples) {
    const core::RtpPrediction want = replayed.Predict(s);
    const core::RtpPrediction got = fitted->Predict(s);
    ASSERT_EQ(got.location_route, want.location_route);
    ASSERT_EQ(got.location_times_min, want.location_times_min);
    ASSERT_EQ(got.aoi_times_min, want.aoi_times_min);
  }
}

TEST(RtpModelTest, HeuristicsPredictWithoutFit) {
  for (const std::string& name :
       {std::string("Distance-Greedy"), std::string("Time-Greedy"),
        std::string("OR-Tools")}) {
    auto model = CreateModel(name, QuickScale());
    const synth::Sample& s = SharedSplits()->test.samples.front();
    core::RtpPrediction pred = model->Predict(s);
    EXPECT_EQ(static_cast<int>(pred.location_route.size()),
              s.num_locations());
  }
}

TEST(ComparisonTest, RunsHeuristicSubsetAndBucketsFill) {
  ComparisonResult result = RunComparison(
      *SharedSplits(), {"Distance-Greedy", "Time-Greedy", "OR-Tools"},
      QuickScale());
  ASSERT_EQ(result.methods.size(), 3u);
  for (const MethodResult& m : result.methods) {
    EXPECT_GT(m.buckets[2].samples, 0);
    EXPECT_EQ(m.buckets[0].samples + m.buckets[1].samples,
              m.buckets[2].samples);
    EXPECT_GE(m.buckets[2].hr3, 0.0);
    EXPECT_LE(m.buckets[2].hr3, 100.0);
  }
  EXPECT_NE(result.Find("OR-Tools"), nullptr);
  EXPECT_EQ(result.Find("nope"), nullptr);
}

TEST(ComparisonTest, SaveLoadRoundTrip) {
  ComparisonResult result =
      RunComparison(*SharedSplits(), {"Distance-Greedy"}, QuickScale());
  const std::string path = ::testing::TempDir() + "/cmp_cache.txt";
  ASSERT_TRUE(SaveComparison(result, path).ok());
  auto loaded = LoadComparison(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().methods.size(), 1u);
  const MethodResult& a = result.methods[0];
  const MethodResult& b = loaded.value().methods[0];
  EXPECT_EQ(a.method, b.method);
  for (int i = 0; i < metrics::kNumBuckets; ++i) {
    EXPECT_EQ(a.buckets[i].samples, b.buckets[i].samples);
    EXPECT_NEAR(a.buckets[i].krc, b.buckets[i].krc, 1e-5);
    EXPECT_NEAR(a.buckets[i].rmse, b.buckets[i].rmse, 1e-4);
  }
  std::remove(path.c_str());
}

TEST(ComparisonTest, RunOrLoadUsesCache) {
  const std::string path = ::testing::TempDir() + "/cmp_cache2.txt";
  std::remove(path.c_str());
  ComparisonResult first = RunOrLoadComparison(
      *SharedSplits(), {"Time-Greedy"}, QuickScale(), path);
  // Second call must load (same values even if it were stochastic).
  ComparisonResult second = RunOrLoadComparison(
      *SharedSplits(), {"Time-Greedy"}, QuickScale(), path);
  EXPECT_NEAR(first.methods[0].buckets[2].mae,
              second.methods[0].buckets[2].mae, 1e-6);
  // Cache without the requested method forces a re-run.
  ComparisonResult third = RunOrLoadComparison(
      *SharedSplits(), {"Distance-Greedy"}, QuickScale(), path);
  EXPECT_NE(third.Find("Distance-Greedy"), nullptr);
  std::remove(path.c_str());
}

TEST(LoadComparisonTest, MissingFileIsNotFound) {
  auto result = LoadComparison("/nonexistent/cache.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(LatencyTest, MeasuresHeuristics) {
  auto model = CreateModel("Distance-Greedy", QuickScale());
  const int count = std::min<int>(20, SharedSplits()->test.size());
  std::vector<synth::Sample> samples(
      SharedSplits()->test.samples.begin(),
      SharedSplits()->test.samples.begin() + count);
  LatencyResult r = MeasureLatency(*model, samples);
  EXPECT_EQ(r.method, "Distance-Greedy");
  EXPECT_GT(r.mean_ms, 0.0);
  EXPECT_LE(r.p50_ms, r.p99_ms);
  EXPECT_EQ(r.complexity, "O(N log N)");
}

TEST(LatencyTest, ComplexityTableReflectsDecodeKeyCache) {
  // Decode contributes N^2 F (cached keys, O(N F) scoring per step)
  // instead of the naive N^2 F^2 recompute.
  EXPECT_EQ(ComplexityFormula("M2G4RTP"),
            "O(N F^2 + E F^2 + N^2 F + A^2 F)");
  EXPECT_EQ(ComplexityFormula("Graph2Route"),
            "O(N F^2 + E F^2 + N^2 F)");
  EXPECT_EQ(ComplexityFormula("OSquare"), "O(t d F N)");
  EXPECT_EQ(ComplexityFormula("unknown-method"), "?");
}

TEST(CaseStudyTest, PicksMultiAoiSamples) {
  std::vector<int> picks =
      PickCaseStudySamples(SharedSplits()->test, 2, 2, 5);
  for (int idx : picks) {
    const synth::Sample& s = SharedSplits()->test.samples[idx];
    EXPECT_GE(s.num_aois(), 2);
    EXPECT_GE(s.num_locations(), 5);
  }
}

TEST(CaseStudyTest, RenderComputesPerSampleErrors) {
  auto model = CreateModel("Time-Greedy", QuickScale());
  const synth::Sample& s = SharedSplits()->test.samples.front();
  CaseRendering r = RenderCase(*model, s);
  EXPECT_EQ(r.method, "Time-Greedy");
  EXPECT_GE(r.rmse, r.mae * 0.999);  // RMSE >= MAE
  EXPECT_GE(r.aoi_bounces, 0);
}

TEST(AblationTest, VariantListMatchesFigure5) {
  auto names = AblationVariantNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names.back(), "M2G4RTP");
}

}  // namespace
}  // namespace m2g::eval
