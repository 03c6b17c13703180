// Incremental re-encode parity suite: a delta step over a warm
// LevelEncodeCache must reproduce a from-scratch EncodeFast bit for bit —
// for appends, middle inserts, removals and pure feature drift, under
// pooled AND plain tensor storage — and PredictIncremental must match
// Predict exactly on order-arrival request streams while reporting the
// documented fallback reasons (structural diffs, capacity growth,
// scheduled refresh, global-embedding drift, grad mode).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/incremental_encode.h"
#include "core/model.h"
#include "graph/features.h"
#include "graph/multi_level_graph.h"
#include "obs/metrics.h"
#include "serve/feature_extractor.h"
#include "synth/world.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

/// Forces the pool globally on or off for a scope, restoring the prior
/// setting on exit.
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

void ExpectLevelBitEqual(const EncodedLevel& got, const EncodedLevel& want,
                         const char* what) {
  ExpectBitEqual(got.nodes.value(), want.nodes.value(), what);
  ExpectBitEqual(got.edges.value(), want.edges.value(), what);
}

/// Node/pair content derived deterministically from stable node ids, so a
/// graph built from any id subset agrees bitwise with any other subset on
/// shared nodes and shared pairs — exactly the single-node-delta contract
/// the serving feature path provides (node features are per-task, edge
/// features are pair-local).
Matrix NodeRow(int id) {
  Rng rng(1000 + static_cast<uint64_t>(id));
  return Matrix::Random(1, graph::kLocationContinuousDim, -1, 1, &rng);
}

uint64_t PairSeed(int a, int b) {
  return 7777 + static_cast<uint64_t>(std::min(a, b)) * 131071 +
         static_cast<uint64_t>(std::max(a, b));
}

graph::LevelGraph LevelFromIds(const std::vector<int>& ids) {
  const int n = static_cast<int>(ids.size());
  graph::LevelGraph level;
  level.n = n;
  level.node_continuous = Matrix(n, graph::kLocationContinuousDim);
  level.node_aoi_id.resize(n);
  level.node_aoi_type.resize(n);
  for (int i = 0; i < n; ++i) {
    const Matrix row = NodeRow(ids[i]);
    std::memcpy(level.node_continuous.data() +
                    static_cast<size_t>(i) * graph::kLocationContinuousDim,
                row.data(),
                sizeof(float) * graph::kLocationContinuousDim);
    level.node_aoi_id[i] = ids[i] % 512;
    level.node_aoi_type[i] = ids[i] % synth::kNumAoiTypes;
  }
  level.edge_features = Matrix(n * n, graph::kEdgeDim);
  level.adjacency.assign(static_cast<size_t>(n) * n, false);
  for (int i = 0; i < n; ++i) {
    level.adjacency[static_cast<size_t>(i) * n + i] = true;
    for (int j = 0; j < n; ++j) {
      Rng rng(PairSeed(ids[i], ids[j]));
      Matrix e = Matrix::Random(1, graph::kEdgeDim, 0, 1, &rng);
      std::memcpy(level.edge_features.data() +
                      (static_cast<size_t>(i) * n + j) * graph::kEdgeDim,
                  e.data(), sizeof(float) * graph::kEdgeDim);
      if (i != j && rng.Bernoulli(0.45)) {
        level.adjacency[static_cast<size_t>(i) * n + j] = true;
        level.adjacency[static_cast<size_t>(j) * n + i] = true;
      }
    }
  }
  return level;
}

/// Paper-sized encoder (hidden 48, 4 heads, 2 layers — exercises both the
/// concat hidden layer and the averaged last layer).
struct EncoderFixture {
  explicit EncoderFixture(uint64_t seed = 901) : rng(seed) {
    config.seed = 11;
    encoder = std::make_unique<LevelEncoder>(
        config, graph::kLocationContinuousDim, &rng);
    global =
        Tensor::Constant(Matrix::Random(1, config.courier_dim, -1, 1, &rng));
  }

  EncodedLevel Full(const graph::LevelGraph& level) {
    EncodePlan plan(level.n, config.hidden_dim);
    return encoder->EncodeFast(level, global, &plan);
  }

  ModelConfig config;
  Rng rng;
  std::unique_ptr<LevelEncoder> encoder;
  Tensor global;
};

/// Warms a cache on `start` then drives it through `steps`, asserting
/// every delta-encoded step bitwise against a fresh full encode. Returns
/// how many steps actually took the delta path.
int DriveStream(EncoderFixture* f, const std::vector<int>& start,
                const std::vector<std::vector<int>>& steps,
                const char* what) {
  NoGradGuard no_grad;
  LevelEncodeCache cache;
  graph::LevelGraph prev = LevelFromIds(start);
  {
    EncodePlan plan(prev.n, f->config.hidden_dim);
    EncodedLevel warm =
        f->encoder->EncodeFast(prev, f->global, &plan, &cache);
    ExpectLevelBitEqual(warm, f->Full(prev), what);
  }
  int delta_steps = 0;
  for (const std::vector<int>& ids : steps) {
    graph::LevelGraph next = LevelFromIds(ids);
    const graph::LevelGraphDelta delta = graph::DiffLevelGraph(prev, next);
    EncodePlan plan(std::max(prev.n, next.n), f->config.hidden_dim);
    std::optional<EncodedLevel> got = f->encoder->EncodeDelta(
        next, prev, delta, f->global, &plan, &cache);
    if (got.has_value()) {
      ++delta_steps;
      ExpectLevelBitEqual(*got, f->Full(next), what);
    } else {
      // Fallback: re-warm, as PredictIncremental would.
      EncodedLevel full =
          f->encoder->EncodeFast(next, f->global, &plan, &cache);
      ExpectLevelBitEqual(full, f->Full(next), what);
    }
    prev = std::move(next);
  }
  return delta_steps;
}

TEST(IncrementalEncodeTest, CachedWarmEncodeMatchesEncodeFastBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    NoGradGuard no_grad;
    for (int n : {1, 2, 5, 17}) {
      EncoderFixture f(700 + n);
      std::vector<int> ids;
      for (int i = 0; i < n; ++i) ids.push_back(3 * i);
      graph::LevelGraph level = LevelFromIds(ids);
      LevelEncodeCache cache;
      EncodePlan plan(n, f.config.hidden_dim);
      EncodedLevel cached =
          f.encoder->EncodeFast(level, f.global, &plan, &cache);
      ExpectLevelBitEqual(cached, f.Full(level), "warm vs EncodeFast");
      EXPECT_EQ(cache.n, n);
      EXPECT_GT(cache.bytes(), 0u);
    }
  }
}

TEST(IncrementalEncodeTest, AppendArrivalStreamBitwise) {
  // The common serving case: orders arrive with ascending ids, so every
  // new node appends at the end of the ordering (index-stable, no remap).
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    EncoderFixture f(811);
    std::vector<int> ids{0, 2, 4, 6, 8};
    std::vector<std::vector<int>> steps;
    for (int id = 10; id <= 20; id += 2) {
      ids.push_back(id);
      steps.push_back(ids);
    }
    const int deltas = DriveStream(&f, {0, 2, 4, 6, 8}, steps, "append");
    // With pair-local features every append is single-node-explainable;
    // expect the delta path to carry (nearly) the whole stream.
    EXPECT_GE(deltas, 5) << "append stream barely used the delta path";
  }
}

TEST(IncrementalEncodeTest, MiddleInsertAndRemoveBitwise) {
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    EncoderFixture f(823);
    // Insert into the middle (remap), remove from the middle, remove the
    // last node, then append again over the shifted cache.
    const std::vector<std::vector<int>> steps = {
        {10, 20, 25, 30, 40, 50},  // middle insert (pos 2)
        {10, 20, 25, 40, 50},      // middle remove (pos 3)
        {10, 20, 25, 40},          // end remove
        {10, 20, 25, 40, 60},      // append after remaps
    };
    const int deltas =
        DriveStream(&f, {10, 20, 30, 40, 50}, steps, "insert/remove");
    EXPECT_EQ(deltas, 4);
  }
}

TEST(IncrementalEncodeTest, FeatureDriftOnAlignedNodesBitwise) {
  // Same node set, one node's features drift (e.g. an AOI centroid moved
  // when an order joined it): classified kSameNodes, delta-encoded.
  EncoderFixture f(829);
  NoGradGuard no_grad;
  const std::vector<int> ids{1, 3, 5, 7, 9, 11};
  graph::LevelGraph before = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(before.n, f.config.hidden_dim);
  f.encoder->EncodeFast(before, f.global, &plan, &cache);

  graph::LevelGraph after = LevelFromIds(ids);
  after.node_continuous.At(2, 0) += 0.25f;
  after.node_continuous.At(2, 3) -= 0.5f;
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(before, after);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kSameNodes);
  std::optional<EncodedLevel> got =
      f.encoder->EncodeDelta(after, before, delta, f.global, &plan, &cache);
  ASSERT_TRUE(got.has_value());
  ExpectLevelBitEqual(*got, f.Full(after), "feature drift");
}

TEST(IncrementalEncodeTest, IdenticalGraphServesCacheBitwise) {
  EncoderFixture f(831);
  NoGradGuard no_grad;
  const std::vector<int> ids{2, 4, 6, 8};
  graph::LevelGraph level = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(level.n, f.config.hidden_dim);
  f.encoder->EncodeFast(level, f.global, &plan, &cache);
  graph::LevelGraph same = LevelFromIds(ids);
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(level, same);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kIdentical);
  std::optional<EncodedLevel> got =
      f.encoder->EncodeDelta(same, level, delta, f.global, &plan, &cache);
  ASSERT_TRUE(got.has_value());
  ExpectLevelBitEqual(*got, f.Full(same), "identical");
}

TEST(IncrementalEncodeTest, StructuralAndOversizeDeltasRefuse) {
  EncoderFixture f(837);
  NoGradGuard no_grad;
  const std::vector<int> ids{5, 10, 15, 20};
  graph::LevelGraph level = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(32, f.config.hidden_dim);
  f.encoder->EncodeFast(level, f.global, &plan, &cache);

  // Permutation: values survive but the numbering moved — structural.
  graph::LevelGraph permuted = LevelFromIds({10, 5, 15, 20});
  graph::LevelGraphDelta delta = graph::DiffLevelGraph(level, permuted);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kStructural);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(permuted, level, delta, f.global, &plan, &cache)
          .has_value());

  // A graph past the cache capacity refuses regardless of the diff.
  std::vector<int> big_ids;
  for (int i = 0; i <= cache.cap; ++i) big_ids.push_back(i);
  graph::LevelGraph big = LevelFromIds(big_ids);
  delta = graph::DiffLevelGraph(level, big);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(big, level, delta, f.global, &plan, &cache)
          .has_value());

  // A cold cache refuses everything.
  LevelEncodeCache cold;
  delta = graph::DiffLevelGraph(level, level);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(level, level, delta, f.global, &plan, &cold)
          .has_value());
}

TEST(IncrementalEncodeTest, DirtySpreadBailsOutToFullEncode) {
  // Every node's features move (the courier walked): the delta would
  // recompute more than half the rows, so it declines and the caller
  // re-warms.
  EncoderFixture f(839);
  NoGradGuard no_grad;
  const std::vector<int> ids{1, 2, 3, 4, 5, 6};
  graph::LevelGraph before = LevelFromIds(ids);
  LevelEncodeCache cache;
  EncodePlan plan(before.n, f.config.hidden_dim);
  f.encoder->EncodeFast(before, f.global, &plan, &cache);
  graph::LevelGraph after = LevelFromIds(ids);
  for (int i = 0; i < after.n; ++i) after.node_continuous.At(i, 0) += 1.0f;
  const graph::LevelGraphDelta delta = graph::DiffLevelGraph(before, after);
  EXPECT_EQ(delta.kind, graph::LevelDeltaKind::kSameNodes);
  EXPECT_FALSE(
      f.encoder->EncodeDelta(after, before, delta, f.global, &plan, &cache)
          .has_value());
  // The cache survives a refusal well enough to re-warm correctly.
  EncodedLevel full =
      f.encoder->EncodeFast(after, f.global, &plan, &cache);
  ExpectLevelBitEqual(full, f.Full(after), "re-warm after refusal");
}

/// World + untrained (seed-initialized) model for end-to-end
/// PredictIncremental parity. Training is irrelevant to parity and slow.
struct ModelFixture {
  synth::DataConfig data_config;
  synth::BuiltWorld built;
  std::unique_ptr<M2g4Rtp> model;
  std::unique_ptr<serve::FeatureExtractor> extractor;
  const synth::Sample* sample = nullptr;  // richest test sample

  explicit ModelFixture(ModelConfig mc = SmallConfig())
      : data_config([] {
          synth::DataConfig dc;
          dc.seed = 424;
          dc.world.num_aois = 60;
          dc.world.num_districts = 3;
          dc.couriers.num_couriers = 5;
          dc.num_days = 6;
          return dc;
        }()),
        built(synth::BuildWorldAndDataset(data_config)) {
    model = std::make_unique<M2g4Rtp>(mc);
    extractor = std::make_unique<serve::FeatureExtractor>(&built.world);
    for (const synth::Sample& s : built.splits.test.samples) {
      if (sample == nullptr ||
          s.num_locations() > sample->num_locations()) {
        sample = &s;
      }
    }
    M2G_CHECK(sample != nullptr);
    M2G_CHECK_GE(sample->num_locations(), 4);
  }

  static ModelConfig SmallConfig() {
    ModelConfig mc;
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 2;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
    mc.seed = 97;
    return mc;
  }

  serve::RtpRequest RequestWithOrders(int count) const {
    serve::RtpRequest req;
    req.courier = sample->courier;
    req.courier_pos = sample->courier_pos;
    req.query_time_min = sample->query_time_min;
    req.weather = sample->weather;
    req.weekday = sample->weekday;
    for (int i = 0; i < count && i < sample->num_locations(); ++i) {
      const synth::LocationTask& task = sample->locations[i];
      synth::Order o;
      o.id = task.order_id;
      o.pos = task.pos;
      o.aoi_id = task.aoi_id;
      o.accept_time_min = task.accept_time_min;
      o.deadline_min = task.deadline_min;
      req.pending.push_back(o);
    }
    return req;
  }
};

void ExpectPredictionBitEqual(const RtpPrediction& got,
                              const RtpPrediction& want) {
  EXPECT_EQ(got.location_route, want.location_route);
  EXPECT_EQ(got.aoi_route, want.aoi_route);
  ASSERT_EQ(got.location_times_min.size(), want.location_times_min.size());
  for (size_t i = 0; i < want.location_times_min.size(); ++i) {
    EXPECT_EQ(got.location_times_min[i], want.location_times_min[i]) << i;
  }
  ASSERT_EQ(got.aoi_times_min.size(), want.aoi_times_min.size());
  for (size_t i = 0; i < want.aoi_times_min.size(); ++i) {
    EXPECT_EQ(got.aoi_times_min[i], want.aoi_times_min[i]) << i;
  }
}

TEST(PredictIncrementalTest, ArrivalStreamMatchesPredictBitwise) {
  // Orders arrive one at a time, then complete one at a time: every
  // response must match the stateless Predict bitwise, pooled and plain.
  ModelFixture f;
  const int total = f.sample->num_locations();
  for (bool pooled : {true, false}) {
    PoolMode mode(pooled);
    NoGradGuard no_grad;
    IncrementalState state;
    int steps = 0;
    int delta_steps = 0;
    auto serve_one = [&](int count) {
      synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(count));
      IncrementalResult res;
      RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
      RtpPrediction want = f.model->Predict(s);
      ExpectPredictionBitEqual(got, want);
      ++steps;
      delta_steps += res.delta ? 1 : 0;
    };
    for (int count = 2; count <= total; ++count) serve_one(count);
    for (int count = total - 1; count >= 2; --count) serve_one(count);
    // The stream must live on the delta path, not on fallbacks: most
    // steps re-encode only the arriving or completed order's rows.
    EXPECT_GT(2 * delta_steps, steps) << "pooled=" << pooled;
  }
}

TEST(PredictIncrementalTest, RefreshPeriodForcesScheduledFullEncode) {
  // The session re-encodes in full on every 64th update after a warm-up
  // (kRefreshPeriod in core/model.cc), delta or not.
  constexpr int kRefreshPeriod = 64;
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  IncrementalResult res;
  f.model->PredictIncremental(s, &state, &res);
  EXPECT_EQ(res.fallback, IncrementalFallback::kCold);
  for (int i = 1; i < kRefreshPeriod; ++i) {
    f.model->PredictIncremental(s, &state, &res);
    ASSERT_TRUE(res.delta) << "update " << i;
  }
  // deltas_since_full + 1 reaches the period: scheduled refresh.
  RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kRefresh);
  ExpectPredictionBitEqual(got, f.model->Predict(s));
  // And the cycle restarts.
  f.model->PredictIncremental(s, &state, &res);
  EXPECT_TRUE(res.delta);
}

TEST(PredictIncrementalTest, GlobalEmbeddingDriftFallsBack) {
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  f.model->PredictIncremental(s, &state, nullptr);
  // A different weather bucket changes the global embedding bitwise.
  serve::RtpRequest req = f.RequestWithOrders(5);
  req.weather = (req.weather + 1) % synth::kNumWeatherCodes;
  synth::Sample drifted = f.extractor->BuildSample(req);
  IncrementalResult res;
  RtpPrediction got = f.model->PredictIncremental(drifted, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kGlobalChanged);
  ExpectPredictionBitEqual(got, f.model->Predict(drifted));
  // The re-warm adopted the new embedding: the next identical request
  // delta-encodes again.
  f.model->PredictIncremental(drifted, &state, &res);
  EXPECT_TRUE(res.delta);
}

TEST(PredictIncrementalTest, CapacityGrowthFallsBackOnce) {
  ModelFixture f;
  NoGradGuard no_grad;
  IncrementalState state;
  const int total = f.sample->num_locations();
  // Warm small, then grow the pending set one by one; when a level
  // outgrows its padded capacity the step full-encodes (kCapacity) and
  // regrows, and the stream resumes delta-encoding.
  bool saw_capacity = false;
  for (int count = 2; count <= total; ++count) {
    synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(count));
    IncrementalResult res;
    RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
    ExpectPredictionBitEqual(got, f.model->Predict(s));
    saw_capacity |= res.fallback == IncrementalFallback::kCapacity;
  }
  if (total > 16) {
    // kMinCapacity is 16: a stream past it must have hit the growth path.
    EXPECT_TRUE(saw_capacity);
  }
}

TEST(PredictIncrementalTest, GradModeDisablesSessionsAndMatchesPredict) {
  ModelFixture f;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(4));
  IncrementalResult res;
  RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
  EXPECT_FALSE(res.delta);
  EXPECT_EQ(res.fallback, IncrementalFallback::kDisabled);
  EXPECT_FALSE(state.warm);
  EXPECT_EQ(state.bytes(), 0u);
  ExpectPredictionBitEqual(got, f.model->Predict(s));
}

TEST(PredictIncrementalTest, SingleLevelArrivalStreamMatchesPredict) {
  // Without the AOI level only the location encoder carries a session
  // cache: every step must still match Predict bitwise, and the stream
  // must reach the delta path.
  ModelConfig mc = ModelFixture::SmallConfig();
  mc.use_aoi_level = false;
  ModelFixture f(mc);
  NoGradGuard no_grad;
  IncrementalState state;
  int delta_steps = 0;
  for (int count = 2; count <= f.sample->num_locations(); ++count) {
    synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(count));
    IncrementalResult res;
    RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
    RtpPrediction want = f.model->Predict(s);
    ExpectPredictionBitEqual(got, want);
    EXPECT_TRUE(got.aoi_route.empty());
    delta_steps += res.delta ? 1 : 0;
  }
  EXPECT_GE(delta_steps, 1);
  EXPECT_EQ(state.aoi.bytes(), 0u);
}

TEST(PredictIncrementalTest, BiLstmAblationDisablesSessionsAndMatchesPredict) {
  // The "w/o graph" ablation has no GAT-e stack to cache: sessions stay
  // inert even with gradients off, and the result is exactly Predict.
  ModelConfig mc = ModelFixture::SmallConfig();
  mc.use_graph_encoder = false;
  ModelFixture f(mc);
  NoGradGuard no_grad;
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(4));
  for (int round = 0; round < 2; ++round) {
    IncrementalResult res;
    RtpPrediction got = f.model->PredictIncremental(s, &state, &res);
    EXPECT_FALSE(res.delta);
    EXPECT_EQ(res.fallback, IncrementalFallback::kDisabled);
    EXPECT_FALSE(state.warm);
    EXPECT_EQ(state.bytes(), 0u);
    ExpectPredictionBitEqual(got, f.model->Predict(s));
  }
}

TEST(PredictIncrementalTest, ConcurrentStatesAreIndependent) {
  // One shared const model, one IncrementalState per thread (the session
  // store's locking discipline): streams must stay bitwise-correct and
  // data-race-free (TSan job).
  ModelFixture f;
  const int total = std::min(f.sample->num_locations(), 8);
  std::vector<RtpPrediction> want(total + 1);
  {
    NoGradGuard no_grad;
    for (int count = 2; count <= total; ++count) {
      want[count] = f.model->Predict(
          f.extractor->BuildSample(f.RequestWithOrders(count)));
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      NoGradGuard no_grad;
      IncrementalState state;
      for (int round = 0; round < 2; ++round) {
        for (int count = 2; count <= total; ++count) {
          synth::Sample s =
              f.extractor->BuildSample(f.RequestWithOrders(count));
          RtpPrediction got =
              f.model->PredictIncremental(s, &state, nullptr);
          ExpectPredictionBitEqual(got, want[count]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(PredictIncrementalTest, DeltaStepsMoveTheCounters) {
#ifdef M2G_OBS_DISABLED
  GTEST_SKIP() << "metrics compiled out (M2G_OBS_DISABLED)";
#else
  ModelFixture f;
  NoGradGuard no_grad;
  obs::SetEnabled(true);
  obs::Counter& deltas =
      obs::MetricsRegistry::Global().counter("encode.delta_steps");
  const uint64_t before = deltas.Value();
  IncrementalState state;
  synth::Sample s = f.extractor->BuildSample(f.RequestWithOrders(5));
  f.model->PredictIncremental(s, &state, nullptr);
  f.model->PredictIncremental(s, &state, nullptr);
  obs::SetEnabled(false);
  EXPECT_GT(deltas.Value(), before);
#endif
}

}  // namespace
}  // namespace m2g::core
