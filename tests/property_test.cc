// Parameterized property sweeps across modules: invariants that must
// hold for *every* seed/size, not just hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baselines/tsp.h"
#include "core/model.h"
#include "core/trainer.h"
#include "graph/features.h"
#include "metrics/report.h"
#include "tensor/ops.h"
#include "tests/oracles/distance.h"

namespace m2g {
namespace {

// ---------------------------------------------------------------------------
// Route metric invariants over random permutations.
// ---------------------------------------------------------------------------

class RouteMetricProperties : public ::testing::TestWithParam<int> {};

TEST_P(RouteMetricProperties, InvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int n = rng.UniformInt(2, 20);
  std::vector<int> label(n), pred(n);
  std::iota(label.begin(), label.end(), 0);
  std::iota(pred.begin(), pred.end(), 0);
  rng.Shuffle(&label);
  rng.Shuffle(&pred);

  // Self-comparison is perfect.
  EXPECT_DOUBLE_EQ(metrics::KendallRankCorrelation(label, label), 1.0);
  EXPECT_DOUBLE_EQ(metrics::LocationSquareDeviation(label, label), 0.0);
  EXPECT_DOUBLE_EQ(metrics::HitRate(label, label, 3), 1.0);

  // Bounds.
  const double krc = metrics::KendallRankCorrelation(pred, label);
  EXPECT_GE(krc, -1.0);
  EXPECT_LE(krc, 1.0);
  const double hr = metrics::HitRate(pred, label, 3);
  EXPECT_GE(hr, 0.0);
  EXPECT_LE(hr, 1.0);
  EXPECT_GE(metrics::LocationSquareDeviation(pred, label), 0.0);

  // Reversing the prediction negates KRC exactly.
  std::vector<int> reversed(pred.rbegin(), pred.rend());
  EXPECT_NEAR(metrics::KendallRankCorrelation(reversed, label), -krc,
              1e-12);

  // KRC is symmetric in its arguments.
  EXPECT_DOUBLE_EQ(metrics::KendallRankCorrelation(pred, label),
                   metrics::KendallRankCorrelation(label, pred));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteMetricProperties,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// TSP heuristic: 2-opt output is never longer than pure NN, always a
// permutation, and is locally 2-opt-optimal.
// ---------------------------------------------------------------------------

class TspProperties : public ::testing::TestWithParam<int> {};

TEST_P(TspProperties, TwoOptLocalOptimality) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 1);
  geo::LatLng start{30.25, 120.17};
  const int n = rng.UniformInt(3, 18);
  std::vector<geo::LatLng> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(geo::OffsetMeters(start, rng.Uniform(-5000, 5000),
                                    rng.Uniform(-5000, 5000)));
  }
  std::vector<int> order = baselines::SolveOpenTsp(start, pts);
  ASSERT_TRUE(metrics::IsPermutation(order, n));
  const double base = baselines::OpenPathMeters(start, pts, order);
  // No single segment reversal improves the path (true local optimum).
  for (int i = 0; i < n - 1; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::vector<int> alt = order;
      std::reverse(alt.begin() + i, alt.begin() + j + 1);
      EXPECT_GE(baselines::OpenPathMeters(start, pts, alt) + 1e-6, base)
          << "improving reversal (" << i << "," << j << ") missed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TspProperties, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// KNN connectivity invariants over random point sets and k.
// ---------------------------------------------------------------------------

class KnnProperties : public ::testing::TestWithParam<int> {};

TEST_P(KnnProperties, SymmetricSelfLoopedMinDegree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  geo::LatLng base{30.25, 120.17};
  const int n = rng.UniformInt(2, 20);
  const int k = rng.UniformInt(1, 8);
  std::vector<geo::LatLng> pts;
  std::vector<double> deadlines;
  for (int i = 0; i < n; ++i) {
    pts.push_back(geo::OffsetMeters(base, rng.Uniform(-3000, 3000),
                                    rng.Uniform(-3000, 3000)));
    deadlines.push_back(rng.Uniform(0, 500));
  }
  auto adj = graph::KnnConnectivity(pts, deadlines, k);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(adj[i * n + i]);
    int degree = 0;
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(adj[i * n + j], adj[j * n + i]);
      if (j != i && adj[i * n + j]) ++degree;
    }
    EXPECT_GE(degree, std::min(k, n - 1));
    EXPECT_LE(degree, n - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnProperties, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Decoder invariants across random model seeds and sizes.
// ---------------------------------------------------------------------------

class DecoderProperties : public ::testing::TestWithParam<int> {};

TEST_P(DecoderProperties, GreedyAndBeamProduceValidPermutations) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 53 + 3);
  const int n = rng.UniformInt(1, 20);
  const int d = 8, du = 4;
  core::AttentionRouteDecoder decoder(d, du, 8, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -2, 2, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  EXPECT_TRUE(metrics::IsPermutation(decoder.DecodeGreedy(nodes, courier),
                                     n));
  EXPECT_TRUE(metrics::IsPermutation(
      decoder.DecodeBeam(nodes, courier, 3), n));
  // Teacher-forced loss is lower-bounded by 0 and finite for any label.
  std::vector<int> label(n);
  std::iota(label.begin(), label.end(), 0);
  rng.Shuffle(&label);
  const float loss =
      decoder.TeacherForcedLoss(nodes, courier, label).item();
  EXPECT_GE(loss, 0.0f);
  EXPECT_TRUE(std::isfinite(loss));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderProperties,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Full-model prediction invariants across dataset seeds.
// ---------------------------------------------------------------------------

class ModelPredictionProperties : public ::testing::TestWithParam<int> {};

TEST_P(ModelPredictionProperties, ValidOutputsOnFreshWorlds) {
  synth::DataConfig dc;
  dc.seed = static_cast<uint64_t>(GetParam()) * 1009 + 21;
  dc.world.num_aois = 50;
  dc.couriers.num_couriers = 4;
  dc.num_days = 4;
  synth::DatasetSplits splits = synth::BuildDataset(dc);
  if (splits.test.samples.empty()) GTEST_SKIP();

  core::ModelConfig mc;
  mc.hidden_dim = 16;
  mc.num_heads = 2;
  mc.num_layers = 1;
  mc.aoi_id_embed_dim = 4;
  mc.aoi_type_embed_dim = 2;
  mc.lstm_hidden_dim = 16;
  mc.courier_dim = 8;
  mc.pos_enc_dim = 4;
  mc.seed = dc.seed;
  core::M2g4Rtp model(mc);
  for (int i = 0; i < std::min(5, splits.test.size()); ++i) {
    const synth::Sample& s = splits.test.samples[i];
    core::RtpPrediction pred = model.Predict(s);
    EXPECT_TRUE(
        metrics::IsPermutation(pred.location_route, s.num_locations()));
    EXPECT_TRUE(metrics::IsPermutation(pred.aoi_route, s.num_aois()));
    for (double t : pred.location_times_min) {
      EXPECT_GE(t, 0.0);
      EXPECT_TRUE(std::isfinite(t));
    }
    // AOI-level times must also be finite and non-negative.
    for (double t : pred.aoi_times_min) {
      EXPECT_GE(t, 0.0);
      EXPECT_TRUE(std::isfinite(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPredictionProperties,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace m2g
