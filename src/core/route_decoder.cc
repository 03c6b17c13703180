#include "core/route_decoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/init.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

obs::Counter& CacheBuildCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("decode.cache_builds");
  return c;
}

obs::Counter& FastStepCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("decode.fast_steps");
  return c;
}

/// One candidate (hypothesis, next node) pair of a beam step.
struct Expansion {
  int hyp = 0;
  int node = 0;
  double logp = 0;
};

/// Shared beam ordering: by score, then hypothesis index, then node id.
/// The secondary keys make equal-score selections deterministic across
/// platforms and against the reference decoder (std::partial_sort is
/// unstable, so score-only comparison could keep either candidate).
bool ExpansionBefore(const Expansion& a, const Expansion& b) {
  if (a.logp != b.logp) return a.logp > b.logp;
  if (a.hyp != b.hyp) return a.hyp < b.hyp;
  return a.node < b.node;
}

}  // namespace

AttentionRouteDecoder::AttentionRouteDecoder(int node_dim, int courier_dim,
                                             int lstm_hidden, Rng* rng)
    : node_dim_(node_dim),
      courier_dim_(courier_dim),
      lstm_hidden_(lstm_hidden) {
  lstm_ = std::make_unique<nn::LstmCell>(node_dim, lstm_hidden, rng);
  AddChild("lstm", lstm_.get());
  start_token_ =
      AddParameter("start_token", nn::XavierUniform(1, node_dim, rng));
  w6_ = AddParameter("w6", nn::XavierUniform(node_dim, node_dim, rng));
  w7_ = AddParameter(
      "w7", nn::XavierUniform(lstm_hidden + courier_dim, node_dim, rng));
  v_ = AddParameter("v", nn::XavierUniform(node_dim, 1, rng));
}

Tensor AttentionRouteDecoder::StepLogits(const Tensor& nodes,
                                         const Tensor& courier,
                                         const nn::LstmState& state,
                                         const Matrix& keys_value) const {
  // q = W7 [h_{s-1} || u]; scores_j = v^T tanh(W6 x_j + q). The
  // per-step-recompute reference builds the same nodes in the same
  // order, so the deterministic backward order is the same too.
  Tensor q = MatMul(ConcatCols(state.h, courier), w7_);
  Tensor keys = AddRowBroadcast(MatMulWithValue(nodes, w6_, keys_value), q);
  return Transpose(MatMul(Tanh(keys), v_));
}

AttentionRouteDecoder::KeyCache AttentionRouteDecoder::BuildKeyCache(
    const Tensor& nodes, const Tensor& courier) const {
  static obs::Histogram& hist = obs::StageHistogram("decode.cache_build.ms");
  obs::TraceSpan span("decode.cache_build.ms", &hist);
  CacheBuildCounter().Increment();
  M2G_CHECK_EQ(nodes.cols(), node_dim_);
  M2G_CHECK_EQ(courier.cols(), courier_dim_);
  KeyCache cache;
  cache.keys = MatMulRaw(nodes.value(), w6_.value());
  cache.courier = courier.value();
  cache.nodes = &nodes.value();
  return cache;
}

void AttentionRouteDecoder::QueryRow(const KeyCache& cache,
                                     const float* h_row,
                                     float* q_out) const {
  // q = [h || u] * W7 without the ConcatCols copy: h's terms accumulate
  // first (W7 rows [0, lstm_hidden_)), then the courier's (the remaining
  // rows) — exactly MatMulRaw's ascending-p order on the concatenated
  // row. Replaying the courier terms per step, instead of pre-summing
  // them into the cache, is what keeps that order intact; they cost
  // O(courier_dim * node_dim) against the O(n * node_dim) scoring pass.
  std::fill(q_out, q_out + node_dim_, 0.0f);
  const Matrix& w7 = w7_.value();
  AccumulateRowMatMul(h_row, lstm_hidden_, w7.data(), node_dim_, q_out);
  AccumulateRowMatMul(
      cache.courier.data(), courier_dim_,
      w7.data() + static_cast<size_t>(lstm_hidden_) * node_dim_, node_dim_,
      q_out);
}

Tensor AttentionRouteDecoder::TeacherForcedLoss(
    const Tensor& nodes, const Tensor& courier,
    const std::vector<int>& label_route) const {
  const int n = nodes.rows();
  M2G_CHECK_EQ(static_cast<int>(label_route.size()), n);
  // Hoist the step-invariant key projection: every step's MatMul(nodes,
  // w6_) has the same value, so run the kernel once and rebuild the
  // per-step node around the shared value. The forward drops n-1 of the
  // O(n d^2) products; the graph per step is unchanged.
  const Matrix keys_value = MatMulRaw(nodes.value(), w6_.value());
  nn::LstmState state = lstm_->InitialState();
  Tensor input = start_token_;
  std::vector<bool> unvisited(n, true);
  Tensor total = Tensor::Scalar(0.0f);
  for (int s = 0; s < n; ++s) {
    state = lstm_->Forward(input, state);
    Tensor logits = StepLogits(nodes, courier, state, keys_value);
    total = Add(total,
                MaskedCrossEntropy(logits, label_route[s], unvisited));
    unvisited[label_route[s]] = false;
    input = Row(nodes, label_route[s]);
  }
  return Scale(total, 1.0f / static_cast<float>(n));
}

std::vector<int> AttentionRouteDecoder::DecodeGreedy(
    const Tensor& nodes, const Tensor& courier) const {
  const int n = nodes.rows();
  // Raw fast path: plain matrix math whatever the thread's grad mode (the
  // result is an int permutation, nothing differentiates through it). The
  // arena keeps per-step temporaries recycling even when the caller has
  // no scope of its own; guards nest, so a serving-layer arena still owns
  // the retained buffers.
  ArenaGuard arena;
  const KeyCache cache = BuildKeyCache(nodes, courier);
  const int H = lstm_hidden_;
  Matrix h(1, H), c(1, H);  // == InitialState(): all zeros
  Matrix h_next = Matrix::Uninit(1, H);
  Matrix c_next = Matrix::Uninit(1, H);
  Matrix q = Matrix::Uninit(1, node_dim_);
  const float* v = v_.value().data();
  const float* input = start_token_.value().data();
  std::vector<bool> unvisited(n, true);
  std::vector<int> route;
  route.reserve(n);
  for (int s = 0; s < n; ++s) {
    const float* x_rows[1] = {input};
    lstm_->StepRawBatch(x_rows, 1, h, c, &h_next, &c_next);
    std::swap(h, h_next);
    std::swap(c, c_next);
    QueryRow(cache, h.data(), q.data());
    // Fused score + masked argmax: strict >, so the first unmasked
    // maximum wins ties.
    int pick = -1;
    float best = -std::numeric_limits<float>::infinity();
    for (int i = 0; i < n; ++i) {
      if (!unvisited[i]) continue;
      const float sc = PointerScoreRow(
          cache.keys.data() + static_cast<size_t>(i) * node_dim_, q.data(),
          v, node_dim_);
      if (sc > best) {
        best = sc;
        pick = i;
      }
    }
    route.push_back(pick);
    unvisited[pick] = false;
    input = cache.nodes->data() + static_cast<size_t>(pick) * node_dim_;
  }
  FastStepCounter().Increment(static_cast<uint64_t>(n));
  return route;
}

std::vector<int> AttentionRouteDecoder::DecodeBeam(const Tensor& nodes,
                                                   const Tensor& courier,
                                                   int beam_width) const {
  M2G_CHECK_GE(beam_width, 1);
  if (beam_width == 1) return DecodeGreedy(nodes, courier);
  const int n = nodes.rows();
  ArenaGuard arena;
  const KeyCache cache = BuildKeyCache(nodes, courier);
  const int H = lstm_hidden_;
  const float* v = v_.value().data();

  // Live hypotheses, stored batched: row b of h/c is hypothesis b's LSTM
  // state, inputs[b] points at its last emitted node row (the start token
  // before the first step); route/mask/logp bookkeeping stays per-b.
  Matrix h(1, H), c(1, H);
  std::vector<const float*> inputs = {start_token_.value().data()};
  std::vector<std::vector<bool>> unvisited = {std::vector<bool>(n, true)};
  std::vector<std::vector<int>> routes = {{}};
  std::vector<double> logps = {0.0};
  uint64_t steps = 0;

  Matrix q = Matrix::Uninit(1, node_dim_);
  std::vector<Expansion> expansions;
  for (int s = 0; s < n; ++s) {
    const int batch = static_cast<int>(inputs.size());
    steps += static_cast<uint64_t>(batch);
    // One batched gate kernel advances every live hypothesis; one fused
    // scoring pass per row replaces a per-hypothesis StepLogits.
    Matrix h_next = Matrix::Uninit(batch, H);
    Matrix c_next = Matrix::Uninit(batch, H);
    lstm_->StepRawBatch(inputs.data(), batch, h, c, &h_next, &c_next);
    Matrix scores = Matrix::Uninit(batch, n);
    expansions.clear();
    for (int b = 0; b < batch; ++b) {
      QueryRow(cache, h_next.data() + static_cast<size_t>(b) * H, q.data());
      float* srow = scores.data() + static_cast<size_t>(b) * n;
      PointerScoresMasked(cache.keys, q.data(), v, unvisited[b], srow);
      // Masked log-softmax over the hypothesis's unvisited set, in
      // double (masked entries of srow are never read).
      double max_v = -1e30;
      for (int j = 0; j < n; ++j) {
        if (unvisited[b][j]) {
          max_v = std::max(max_v, static_cast<double>(srow[j]));
        }
      }
      double denom = 0;
      for (int j = 0; j < n; ++j) {
        if (unvisited[b][j]) denom += std::exp(srow[j] - max_v);
      }
      const double log_z = max_v + std::log(denom);
      for (int j = 0; j < n; ++j) {
        if (!unvisited[b][j]) continue;
        expansions.push_back({b, j, logps[b] + srow[j] - log_z});
      }
    }
    const size_t keep = std::min<size_t>(
        static_cast<size_t>(beam_width), expansions.size());
    std::partial_sort(expansions.begin(), expansions.begin() + keep,
                      expansions.end(), ExpansionBefore);
    // Gather the survivors into the next batch.
    Matrix h_keep = Matrix::Uninit(static_cast<int>(keep), H);
    Matrix c_keep = Matrix::Uninit(static_cast<int>(keep), H);
    std::vector<const float*> next_inputs(keep);
    std::vector<std::vector<bool>> next_unvisited(keep);
    std::vector<std::vector<int>> next_routes(keep);
    std::vector<double> next_logps(keep);
    for (size_t e = 0; e < keep; ++e) {
      const Expansion& ex = expansions[e];
      std::memcpy(h_keep.data() + e * static_cast<size_t>(H),
                  h_next.data() + static_cast<size_t>(ex.hyp) * H,
                  static_cast<size_t>(H) * sizeof(float));
      std::memcpy(c_keep.data() + e * static_cast<size_t>(H),
                  c_next.data() + static_cast<size_t>(ex.hyp) * H,
                  static_cast<size_t>(H) * sizeof(float));
      next_inputs[e] =
          cache.nodes->data() + static_cast<size_t>(ex.node) * node_dim_;
      next_unvisited[e] = unvisited[ex.hyp];
      next_unvisited[e][ex.node] = false;
      next_routes[e] = routes[ex.hyp];
      next_routes[e].push_back(ex.node);
      next_logps[e] = ex.logp;
    }
    h = std::move(h_keep);
    c = std::move(c_keep);
    inputs = std::move(next_inputs);
    unvisited = std::move(next_unvisited);
    routes = std::move(next_routes);
    logps = std::move(next_logps);
  }
  FastStepCounter().Increment(steps);
  return routes.front();
}

}  // namespace m2g::core
