// Encode fast-path parity suite: the fused no-grad GAT-e kernels driven
// through a per-request EncodePlan must reproduce the legacy autograd
// encode bit for bit — under pooled AND plain storage, against the legacy
// path in grad mode AND under NoGradGuard, serial AND concurrent. Also
// pins full-model Predict parity between the fused (no-grad) and legacy
// (grad-mode) encodes, the grad-mode dispatch back to legacy, and the
// zero steady-state pool-miss property of a planned encode.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/gat_e.h"
#include "core/model.h"
#include "graph/features.h"
#include "obs/metrics.h"
#include "serve/feature_extractor.h"
#include "serve/replay.h"
#include "synth/world.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

/// Forces the pool globally on or off for a scope, restoring the prior
/// setting on exit — the suite runs every parity check both ways.
class PoolMode {
 public:
  explicit PoolMode(bool enabled) : saved_(TensorPool::enabled()) {
    TensorPool::set_enabled(enabled);
  }
  ~PoolMode() { TensorPool::set_enabled(saved_); }

 private:
  bool saved_;
};

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// Random but structurally valid level graph: symmetric adjacency with
/// self-loops, ids within the embedding vocabularies.
graph::LevelGraph MakeLevel(int n, uint64_t seed) {
  Rng rng(seed);
  graph::LevelGraph level;
  level.n = n;
  level.node_continuous =
      Matrix::Random(n, graph::kLocationContinuousDim, -1, 1, &rng);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    level.node_aoi_id[i] = rng.UniformInt(0, 511);
    level.node_aoi_type[i] = rng.UniformInt(0, synth::kNumAoiTypes - 1);
  }
  level.edge_features = Matrix::Random(n * n, graph::kEdgeDim, 0, 1, &rng);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

/// Paper-sized encoder (hidden 48, 4 heads, 2 layers — exercises both the
/// concat hidden layer and the averaged last layer) over a random level.
struct Fixture {
  explicit Fixture(int n, uint64_t seed = 901) : rng(seed) {
    config.seed = 11;
    encoder = std::make_unique<LevelEncoder>(
        config, graph::kLocationContinuousDim, &rng);
    level = MakeLevel(n, seed + 1);
    global =
        Tensor::Constant(Matrix::Random(1, config.courier_dim, -1, 1, &rng));
  }

  ModelConfig config;
  Rng rng;
  std::unique_ptr<LevelEncoder> encoder;
  graph::LevelGraph level;
  Tensor global;
};

TEST(EncodeParityTest, FastEncodeMatchesLegacyBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    for (int n : {1, 2, 5, 17, 30, 50, 100}) {
      Fixture f(n, 700 + n);
      // Legacy in grad mode builds the full autograd graph — these are
      // the canonical training-path bits.
      EncodedLevel grad_ref = f.encoder->EncodeLegacy(f.level, f.global);
      NoGradGuard no_grad;
      EncodedLevel nograd_ref = f.encoder->EncodeLegacy(f.level, f.global);
      EncodePlan plan(n, f.config.hidden_dim, f.config.num_heads);
      EncodedLevel fast = f.encoder->EncodeFast(f.level, f.global, &plan);
      ExpectBitEqual(fast.nodes.value(), grad_ref.nodes.value(),
                     "nodes vs grad-mode legacy");
      ExpectBitEqual(fast.edges.value(), grad_ref.edges.value(),
                     "edges vs grad-mode legacy");
      ExpectBitEqual(fast.nodes.value(), nograd_ref.nodes.value(),
                     "nodes vs no-grad legacy");
      ExpectBitEqual(fast.edges.value(), nograd_ref.edges.value(),
                     "edges vs no-grad legacy");
      // An oversized plan (serving sizes it to the max level, then reuses
      // it for the smaller one) must not change a single bit.
      EncodePlan big(n + 13, f.config.hidden_dim, f.config.num_heads);
      EncodedLevel fast_big = f.encoder->EncodeFast(f.level, f.global, &big);
      ExpectBitEqual(fast_big.nodes.value(), fast.nodes.value(),
                     "nodes with oversized plan");
      ExpectBitEqual(fast_big.edges.value(), fast.edges.value(),
                     "edges with oversized plan");
    }
  }
}

// Node rows holding exact zeros. The legacy encode's node products skip
// a row's zero entries (AccumulateRowMatMul's zero-scan); the fused
// layer's row-blocked node projections (simd::DenseRowsMatMul) add them
// as +/-0.0 terms, which must change no bit. n is not a multiple of the
// kernel's 4-row block, so the ragged block runs too.
TEST(EncodeParityTest, ZeroNodeEntriesMatchLegacyBitwise) {
  for (int n : {3, 6, 7, 13}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    Fixture f(n, 820 + n);
    // Zeroed input_proj columns (weight and bias) put an exact +0.0 in
    // those columns of every node row entering the first GAT-e layer:
    // inside the 16-entry zero-scan prefix and beyond it.
    for (const auto& [name, param] : f.encoder->NamedParameters()) {
      if (name != "input_proj/weight" && name != "input_proj/bias") continue;
      Tensor p = param;
      Matrix& v = p.mutable_value();
      for (int r = 0; r < v.rows(); ++r) {
        for (int c : {0, 3, 20, 47}) v.At(r, c) = 0.0f;
      }
    }
    const EncodedLevel ref = f.encoder->EncodeLegacy(f.level, f.global);
    NoGradGuard no_grad;
    EncodePlan plan(n, f.config.hidden_dim, f.config.num_heads);
    const EncodedLevel fast = f.encoder->EncodeFast(f.level, f.global, &plan);
    ExpectBitEqual(fast.nodes.value(), ref.nodes.value(), "nodes");
    ExpectBitEqual(fast.edges.value(), ref.edges.value(), "edges");
  }
  // One layer at a time, with -0.0 entries too and whole zero rows, which
  // an encode's input projection cannot produce.
  for (bool is_last : {false, true}) {
    for (int n : {3, 6, 7, 13}) {
      SCOPED_TRACE(testing::Message() << "layer n=" << n << " last "
                                      << is_last);
      Fixture f(n, 840 + n);
      const GatELayer layer(f.config, is_last, &f.rng);
      const int d = f.config.hidden_dim;
      Matrix nodes = Matrix::Random(n, d, -1, 1, &f.rng);
      for (int i = 0; i < n; ++i) {
        for (int c = i % 3; c < d; c += 5) {
          nodes.At(i, c) = c % 2 == 0 ? 0.0f : -0.0f;
        }
      }
      for (int c = 0; c < d; ++c) nodes.At(n / 2, c) = -0.0f;
      const Matrix edges = Matrix::Random(n * n, d, -1, 1, &f.rng);
      const GatEOutput ref =
          layer.Forward(Tensor::Constant(nodes), Tensor::Constant(edges),
                        f.level.adjacency);
      NoGradGuard no_grad;
      EncodePlan plan(n, d, f.config.num_heads);
      layer.ForwardFast(nodes, edges, f.level.adjacency, &plan, nullptr);
      const Matrix& want_nodes = ref.nodes.value();
      const Matrix& want_edges = ref.edges.value();
      EXPECT_EQ(std::memcmp(plan.node_out.data(), want_nodes.data(),
                            want_nodes.size() * sizeof(float)),
                0)
          << "layer nodes";
      EXPECT_EQ(std::memcmp(plan.edge_out.data(), want_edges.data(),
                            want_edges.size() * sizeof(float)),
                0)
          << "layer edges";
    }
  }
}

// Encode() must route by grad mode, not by plan presence: with gradients
// enabled the plan is ignored and the legacy autograd path runs (the
// encode.fast_layers counter stays put), so a misplaced plan can never
// leak a constant into a training graph.
TEST(EncodeParityTest, GradModeDispatchesToLegacyEvenWithPlan) {
  Fixture f(9);
  obs::Counter& fast_layers =
      obs::MetricsRegistry::Global().counter("encode.fast_layers");
  obs::Counter& legacy_layers =
      obs::MetricsRegistry::Global().counter("encode.legacy_layers");
  const uint64_t fast_before = fast_layers.Value();
  const uint64_t legacy_before = legacy_layers.Value();
  EncodePlan plan(9, f.config.hidden_dim, f.config.num_heads);
  ASSERT_TRUE(GradMode::enabled());
  EncodedLevel enc = f.encoder->Encode(f.level, f.global, &plan);
#ifndef M2G_OBS_DISABLED
  EXPECT_EQ(fast_layers.Value(), fast_before);
  EXPECT_GT(legacy_layers.Value(), legacy_before);
#endif
  // And it is a real gradient graph: backprop reaches the encoder.
  Sum(enc.nodes).Backward();
  int touched = 0;
  for (const Tensor& p : f.encoder->Parameters()) {
    if (p.grad().SameShape(p.value()) && p.grad().MaxAbs() > 0) ++touched;
  }
  EXPECT_GT(touched, 0);

  // Under NoGradGuard the same call takes the fast path.
  NoGradGuard no_grad;
  f.encoder->Encode(f.level, f.global, &plan);
#ifndef M2G_OBS_DISABLED
  EXPECT_GT(fast_layers.Value(), fast_before);
#else
  (void)fast_before;
  (void)legacy_before;
#endif
}

synth::DataConfig TinyDataConfig() {
  synth::DataConfig dc;
  dc.seed = 404;
  dc.world.num_aois = 60;
  dc.world.num_districts = 3;
  dc.couriers.num_couriers = 6;
  dc.num_days = 2;
  return dc;
}

ModelConfig TinyModelConfig(int beam_width) {
  ModelConfig c;
  c.seed = 5;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.aoi_id_embed_dim = 4;
  c.aoi_type_embed_dim = 2;
  c.lstm_hidden_dim = 16;
  c.courier_dim = 8;
  c.pos_enc_dim = 4;
  c.beam_width = beam_width;
  return c;
}

/// A request of `n` distinct pending orders: the first sample's courier
/// and query, with orders pooled from the samples of the same world.
synth::Sample LargeSample(const synth::BuiltWorld& built, size_t n) {
  const std::vector<synth::Sample>& samples = built.splits.train.samples;
  serve::RtpRequest req = serve::RequestFromSample(samples.front());
  req.pending.clear();
  std::set<int> ids;
  for (const synth::Sample& s : samples) {
    for (const synth::Order& o : serve::RequestFromSample(s).pending) {
      if (req.pending.size() < n && ids.insert(o.id).second) {
        req.pending.push_back(o);
      }
    }
  }
  return serve::FeatureExtractor(&built.world).BuildSample(req);
}

// End-to-end encode parity: one model's Predict under NoGradGuard (the
// fused encode through one plan shared by both levels) must emit the
// routes and arrival-time bits of its Predict in grad mode, which
// dispatches to EncodeLegacy. Greedy and beam-10, on small dataset
// samples and on an n = 50 request.
TEST(EncodeParityTest, PredictIdenticalFastAndLegacyEncode) {
  const synth::BuiltWorld built = synth::BuildWorldAndDataset(TinyDataConfig());
  ASSERT_GT(built.splits.train.size(), 4);
  std::vector<synth::Sample> samples(built.splits.train.samples.begin(),
                                     built.splits.train.samples.begin() + 4);
  samples.push_back(LargeSample(built, 50));
  ASSERT_EQ(samples.back().num_locations(), 50);
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    for (int beam_width : {1, 10}) {
      M2g4Rtp model(TinyModelConfig(beam_width));
      for (size_t i = 0; i < samples.size(); ++i) {
        ASSERT_TRUE(GradMode::enabled());
        const RtpPrediction legacy = model.Predict(samples[i]);
        NoGradGuard no_grad;
        const RtpPrediction fast = model.Predict(samples[i]);
        SCOPED_TRACE(testing::Message() << "sample " << i << " beam "
                                        << beam_width << " pooled " << pooled);
        EXPECT_EQ(fast.location_route, legacy.location_route);
        EXPECT_EQ(fast.aoi_route, legacy.aoi_route);
        EXPECT_EQ(fast.location_times_min, legacy.location_times_min);
        EXPECT_EQ(fast.aoi_times_min, legacy.aoi_times_min);
      }
    }
  }
}

// After one warm-up request, a planned encode must run entirely off the
// free lists: the plan's scratch, the embedding constants and the fast
// path's outputs all reuse fixed shapes, so a steady-state request makes
// zero pool misses.
TEST(EncodeParityTest, SteadyStateEncodeHasZeroPoolMisses) {
  PoolMode mode(true);
  TensorPool::ReleaseRetained();
  Fixture f(20);
  NoGradGuard no_grad;
  {
    ArenaGuard warmup;
    EncodePlan plan(20, f.config.hidden_dim, f.config.num_heads);
    f.encoder->Encode(f.level, f.global, &plan);
  }
  ArenaGuard steady;
  EncodePlan plan(20, f.config.hidden_dim, f.config.num_heads);
  f.encoder->Encode(f.level, f.global, &plan);
  const TensorPool::Stats stats = steady.ScopeStats();
  EXPECT_EQ(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
}

// Shared-encoder fast encodes from several threads (each with its own
// plan and arena) must be race-free and agree with the serial result —
// the TSan job runs this test.
TEST(EncodeParityTest, ConcurrentEncodeMatchesSerial) {
  Fixture f(15);
  std::vector<float> expected_nodes;
  std::vector<float> expected_edges;
  {
    NoGradGuard no_grad;
    ArenaGuard scope;
    EncodePlan plan(15, f.config.hidden_dim, f.config.num_heads);
    EncodedLevel enc = f.encoder->EncodeFast(f.level, f.global, &plan);
    const Matrix& nv = enc.nodes.value();
    const Matrix& ev = enc.edges.value();
    expected_nodes.assign(nv.data(), nv.data() + nv.size());
    expected_edges.assign(ev.data(), ev.data() + ev.size());
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      NoGradGuard no_grad;  // grad mode is thread-local
      for (int iter = 0; iter < 8; ++iter) {
        ArenaGuard request;
        EncodePlan plan(15, f.config.hidden_dim, f.config.num_heads);
        EncodedLevel enc = f.encoder->EncodeFast(f.level, f.global, &plan);
        const Matrix& nv = enc.nodes.value();
        const Matrix& ev = enc.edges.value();
        if (std::memcmp(nv.data(), expected_nodes.data(),
                        expected_nodes.size() * sizeof(float)) != 0 ||
            std::memcmp(ev.data(), expected_edges.data(),
                        expected_edges.size() * sizeof(float)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace m2g::core
