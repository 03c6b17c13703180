#include "core/gat_e.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "nn/init.h"
#include "obs/metrics.h"
#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g::core {
namespace {

obs::Counter& FastLayerCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.fast_layers");
  return c;
}

obs::Counter& LegacyLayerCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.legacy_layers");
  return c;
}

/// Where one head writes an output row (Eq. 24-26): hidden layers write
/// the head's concat columns at `col0` in place; on the last layer head 0
/// seeds the row and later heads go through the scratch row `sum`
/// (non-null only then) and add in, the sequential elementwise adds of
/// the autograd epilogue.
inline float* HeadSlot(float* out_row, int col0, float* sum) {
  return sum != nullptr ? sum : out_row + col0;
}

}  // namespace

GatELayer::GatELayer(const ModelConfig& config, bool is_last, Rng* rng)
    : hidden_dim_(config.hidden_dim),
      num_heads_(config.num_heads),
      // Hidden layers concatenate P heads back to d; the last layer
      // averages full-width heads (Eq. 26).
      head_dim_(is_last ? config.hidden_dim
                        : config.hidden_dim / config.num_heads),
      is_last_(is_last),
      leaky_slope_(config.leaky_slope) {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  heads_.reserve(num_heads_);
  for (int p = 0; p < num_heads_; ++p) {
    Head h;
    const std::string prefix = StrFormat("head%d_", p);
    h.w1 = AddParameter(prefix + "w1", nn::XavierUniform(d, dh, rng));
    h.av_src = AddParameter(prefix + "av_src",
                            nn::XavierUniform(dh, 1, rng));
    h.av_dst = AddParameter(prefix + "av_dst",
                            nn::XavierUniform(dh, 1, rng));
    h.ae = AddParameter(prefix + "ae", nn::XavierUniform(d, 1, rng));
    h.w2 = AddParameter(prefix + "w2", nn::XavierUniform(d, dh, rng));
    h.w3 = AddParameter(prefix + "w3", nn::XavierUniform(d, dh, rng));
    h.w4 = AddParameter(prefix + "w4", nn::XavierUniform(d, dh, rng));
    h.w5 = AddParameter(prefix + "w5", nn::XavierUniform(d, dh, rng));
    heads_.push_back(std::move(h));
  }
}

GatEOutput GatELayer::Forward(const Tensor& nodes, const Tensor& edges,
                              const std::vector<bool>& adjacency) const {
  const int n = nodes.rows();
  M2G_CHECK_EQ(nodes.cols(), hidden_dim_);
  M2G_CHECK_EQ(edges.rows(), n * n);
  M2G_CHECK_EQ(adjacency.size(), static_cast<size_t>(n) * n);
  LegacyLayerCounter().Increment();

  // Pair index vectors for the edge update (Eq. 23): row i*n+j pairs
  // node i with node j.
  std::vector<int> src_idx(static_cast<size_t>(n) * n);
  std::vector<int> dst_idx(static_cast<size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      src_idx[i * n + j] = i;
      dst_idx[i * n + j] = j;
    }
  }

  std::vector<Tensor> node_heads;
  std::vector<Tensor> edge_heads;
  node_heads.reserve(heads_.size());
  edge_heads.reserve(heads_.size());

  for (const Head& head : heads_) {
    // Eq. 20 decomposed: c_ij = LeakyReLU(s_src[i] + s_dst[j] + s_e[ij]).
    Tensor wh = MatMul(nodes, head.w1);            // (n, dh)
    Tensor s_src = MatMul(wh, head.av_src);        // (n, 1)
    Tensor s_dst = MatMul(wh, head.av_dst);        // (n, 1)
    Tensor s_edge = MatMul(edges, head.ae);        // (n*n, 1)
    // Messages. (Eq. 22 as printed applies W2 to h_i; aggregating the
    // *neighbour* representation h_j is the standard GAT formulation and
    // the only reading under which attention weights matter, so we use
    // h_j.)
    Tensor messages = MatMul(nodes, head.w2);      // (n, dh)
    // Eq. 20-22 over every row i: masked softmax over i's neighbourhood,
    // then the attention-weighted sum of messages.
    Tensor head_nodes =
        GatAttention(s_dst, s_edge, s_src, messages, adjacency, leaky_slope_);
    if (!is_last_) head_nodes = Relu(head_nodes);  // Eq. 24 vs Eq. 26
    node_heads.push_back(head_nodes);

    // Eq. 23 / 25: z'_ij = ReLU(W3 z_ij + W4 h_i + W5 h_j).
    Tensor edge_update =
        Add(MatMul(edges, head.w3),
            Add(GatherRowsMatMul(nodes, src_idx, head.w4),
                GatherRowsMatMul(nodes, dst_idx, head.w5)));
    edge_heads.push_back(Relu(edge_update));
  }

  GatEOutput out;
  if (is_last_) {
    // Average the full-width heads, then the delayed activation (Eq. 26).
    Tensor acc = node_heads[0];
    for (size_t p = 1; p < node_heads.size(); ++p) {
      acc = Add(acc, node_heads[p]);
    }
    out.nodes = Relu(Scale(acc, 1.0f / static_cast<float>(num_heads_)));
    Tensor eacc = edge_heads[0];
    for (size_t p = 1; p < edge_heads.size(); ++p) {
      eacc = Add(eacc, edge_heads[p]);
    }
    out.edges = Scale(eacc, 1.0f / static_cast<float>(num_heads_));
  } else {
    Tensor nodes_cat = node_heads[0];
    Tensor edges_cat = edge_heads[0];
    for (size_t p = 1; p < node_heads.size(); ++p) {
      nodes_cat = ConcatCols(nodes_cat, node_heads[p]);
      edges_cat = ConcatCols(edges_cat, edge_heads[p]);
    }
    out.nodes = nodes_cat;
    out.edges = edges_cat;
  }
  return out;
}

// The row kernels below (with HeadSlot above and the Eq. 23/25 edge
// epilogue, simd::GatEdgeRelu) are the whole fused layer: ForwardFast
// runs them over every row and pair, ForwardFastDelta over its dirty
// sets. Keeping one copy of each is what keeps the two paths
// byte-identical. They are inline so the per-row calls cost nothing in
// the n^2 loops.

inline void GatELayer::PackEdgeWeights(EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int heads = num_heads_;
  float* ae = plan->ae.data();
  float* w3 = plan->w3.data();
  for (int p = 0; p < heads; ++p) {
    const float* ae_p = heads_[p].ae.value().data();
    for (int q = 0; q < d; ++q) ae[q * heads + p] = ae_p[q];
    if (is_last_) continue;
    const float* w3_p = heads_[p].w3.value().data();
    for (int q = 0; q < d; ++q) {
      std::copy(w3_p + q * dh, w3_p + (q + 1) * dh, w3 + q * d + p * dh);
    }
  }
}

inline void GatELayer::EdgeProducts(const float* z, int count, float* se,
                                    float* ew3,
                                    const EncodePlan& plan) const {
  // Column c of a packed product is exactly head c's own (d, 1) or
  // (d, dh) product: the same terms from +0.0 in ascending p.
  const int d = hidden_dim_;
  simd::DenseRowsMatMul(z, count, d, d, plan.ae.data(), num_heads_, se,
                        num_heads_);
  if (ew3 == nullptr) return;
  if (!is_last_) {
    // P*dh == d: the concat of every head's z*W3 in one pass.
    simd::DenseRowsMatMul(z, count, d, d, plan.w3.data(), d, ew3, d);
    return;
  }
  const int width = num_heads_ * d;
  for (int p = 0; p < num_heads_; ++p) {
    simd::DenseRowsMatMul(z, count, d, d, heads_[p].w3.value().data(), d,
                          ew3 + p * d, width);
  }
}

inline void GatELayer::ProjectNodes(const Head& head, const float* nodes,
                                    int n, EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  // Eq. 20/22 projections into the plan's per-head buffers. The four
  // dh-wide products (W1, W2, W4, W5) run row-blocked over all n node
  // rows, straight from the head's own weights. Each element starts from
  // +0.0 and adds its d terms in ascending p, as the autograd MatMul
  // does. That MatMul skips exact zeros of `nodes`, which this kernel
  // adds as +/-0.0 terms: bitwise-neutral for finite weights (the
  // argument is on simd::DenseRowsMatMul). The (1,)-wide products stay
  // on MatMulInto: AccumulateRowMatMul's branchy path, the same path
  // MatMulRaw picks for them on the autograd graph.
  simd::DenseRowsMatMul(nodes, n, d, d, head.w1.value().data(), dh,
                        plan->wh.data(), dh);
  MatMulInto(plan->wh.data(), n, dh, head.av_src.value().data(), 1,
             plan->s_src.data());
  MatMulInto(plan->wh.data(), n, dh, head.av_dst.value().data(), 1,
             plan->s_dst.data());
  simd::DenseRowsMatMul(nodes, n, d, d, head.w2.value().data(), dh,
                        plan->msg.data(), dh);
  // Eq. 23 node terms, hoisted out of the n^2 edge loop: the autograd
  // MatMul(GatherRows(nodes, idx), W) accumulates every gathered row from
  // zero, so its row (i, j) is bit-identical to row i of nodes * W.
  simd::DenseRowsMatMul(nodes, n, d, d, head.w4.value().data(), dh,
                        plan->nw4.data(), dh);
  simd::DenseRowsMatMul(nodes, n, d, d, head.w5.value().data(), dh,
                        plan->nw5.data(), dh);
}

inline void GatELayer::AttentionRow(int i, int p, const float* se,
                                    int stride,
                                    const std::vector<bool>& adjacency,
                                    int n, int col0, float* sum,
                                    EncodePlan* plan) const {
  // Logits -> masked softmax -> aggregation, fused (Eq. 20-22), with no
  // (1, n) or (1, dh) temporaries. Head p's s_edge column of row i is
  // gathered first so the logits kernel reads it contiguously.
  const int dh = head_dim_;
  const float* se_i = se + static_cast<size_t>(i) * stride * num_heads_ + p;
  float* se_row = plan->s_edge_row.data();
  for (int j = 0; j < n; ++j) {
    se_row[j] = se_i[static_cast<size_t>(j) * num_heads_];
  }
  GatLogitsRow(plan->s_dst.data(), se_row, plan->s_src.data()[i],
               leaky_slope_, n, plan->logits.data());
  MaskedSoftmaxRowRaw(plan->logits.data(), adjacency,
                      static_cast<size_t>(i) * n, n, plan->alpha.data());
  float* out = plan->node_out.data() + static_cast<size_t>(i) * hidden_dim_;
  float* dst = HeadSlot(out, col0, sum);
  std::fill(dst, dst + dh, 0.0f);
  AccumulateRowMatMul(plan->alpha.data(), n, plan->msg.data(), dh, dst);
  if (!is_last_) {
    for (int c = 0; c < dh; ++c) dst[c] = dst[c] > 0.0f ? dst[c] : 0.0f;
  } else if (sum != nullptr) {
    for (int c = 0; c < dh; ++c) out[c] += dst[c];
  }
}

inline void GatELayer::MeanOverHeads(int n, const unsigned char* rows,
                                     const unsigned char* pairs,
                                     EncodePlan* plan) const {
  // Eq. 26: scale the head sums by 1/P, then the delayed node ReLU (edges
  // average without an extra activation). Null masks select everything.
  const int d = hidden_dim_;
  const float inv = 1.0f / static_cast<float>(num_heads_);
  for (int i = 0; i < n; ++i) {
    if (rows != nullptr && !rows[i]) continue;
    float* row = plan->node_out.data() + static_cast<size_t>(i) * d;
    for (int c = 0; c < d; ++c) {
      const float v = row[c] * inv;
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
  for (size_t r = 0, nn = static_cast<size_t>(n) * n; r < nn; ++r) {
    if (pairs != nullptr && !pairs[r]) continue;
    float* row = plan->edge_out.data() + r * d;
    for (int c = 0; c < d; ++c) row[c] *= inv;
  }
}

void GatELayer::ForwardFast(const Matrix& nodes, const Matrix& edges,
                            const std::vector<bool>& adjacency,
                            EncodePlan* plan, GatECapture* capture) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int n = nodes.rows();
  M2G_CHECK(!GradMode::enabled());
  M2G_CHECK_EQ(plan->hidden_dim, d);
  M2G_CHECK_EQ(plan->num_heads, num_heads_);
  M2G_CHECK_EQ(nodes.cols(), d);
  M2G_CHECK_EQ(edges.rows(), n * n);
  M2G_CHECK_EQ(edges.cols(), d);
  M2G_CHECK_EQ(adjacency.size(), static_cast<size_t>(n) * n);
  M2G_CHECK_GE(plan->max_nodes, n);
  FastLayerCounter().Increment();

  // All the matmul/logit kernels dispatch through the runtime SIMD tier
  // (tensor/simd.h), bitwise-identical on every tier. The n^2-sized
  // products land where they are read from: the session cache rows
  // (padded stride) when warming one, else plan->s_edge and, on hidden
  // layers, the pairs' own edge_out rows, whose d columns are exactly
  // the P heads' concatenated z*W3. Without a cache the last layer's
  // per-head z*W3 is computed inside the head loop instead (below).
  const int stride = capture != nullptr ? capture->block : n;
  float* se = capture != nullptr ? capture->se : plan->s_edge.data();
  float* edge_out = plan->edge_out.data();
  float* ew3 = capture != nullptr ? capture->ew3
                                  : (is_last_ ? nullptr : edge_out);
  const int ew3_width = num_heads_ * dh;
  PackEdgeWeights(plan);
  for (int i = 0; i < n; ++i) {
    const size_t row = static_cast<size_t>(i) * stride;
    EdgeProducts(edges.data() + static_cast<size_t>(i) * n * d, n,
                 se + row * num_heads_,
                 ew3 != nullptr ? ew3 + row * ew3_width : nullptr, *plan);
  }

  const float* nw4 = plan->nw4.data();
  const float* nw5 = plan->nw5.data();
  float* head_rows = plan->head_rows.data();
  for (int p = 0; p < num_heads_; ++p) {
    const Head& head = heads_[p];
    const int col0 = is_last_ ? 0 : p * dh;
    float* sum = is_last_ && p > 0 ? head_rows : nullptr;
    ProjectNodes(head, nodes.data(), n, plan);
    for (int i = 0; i < n; ++i) {
      AttentionRow(i, p, se, stride, adjacency, n, col0, sum, plan);
    }
    for (int i = 0; i < n; ++i) {
      float* out_i = edge_out + static_cast<size_t>(i) * n * d;
      // Head p's z*W3 rows of edge row i and their row stride. On the
      // last layer without a cache, head 0 computes them into its output
      // rows and later heads into the head_rows scratch.
      const float* ew3_i;
      int ew3_ld;
      if (ew3 != nullptr) {
        ew3_i = ew3 + static_cast<size_t>(i) * stride * ew3_width + p * dh;
        ew3_ld = ew3_width;
      } else {
        float* rows = p == 0 ? out_i : head_rows;
        simd::DenseRowsMatMul(edges.data() + static_cast<size_t>(i) * n * d,
                              n, d, d, head.w3.value().data(), d, rows, d);
        ew3_i = rows;
        ew3_ld = d;
      }
      const float* nw4_row = nw4 + static_cast<size_t>(i) * dh;
      for (int j = 0; j < n; ++j) {
        float* out = out_i + static_cast<size_t>(j) * d;
        simd::GatEdgeRelu(ew3_i + static_cast<size_t>(j) * ew3_ld, nw4_row,
                          nw5 + static_cast<size_t>(j) * dh, dh,
                          sum != nullptr
                              ? head_rows + static_cast<size_t>(j) * d
                              : out + col0,
                          sum != nullptr ? out : nullptr);
      }
    }
  }
  if (is_last_) MeanOverHeads(n, nullptr, nullptr, plan);
}

void GatELayer::ForwardFastDelta(GatEDeltaItem* item,
                                 EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  const int n = item->n;
  const int block = item->block;
  M2G_CHECK(!GradMode::enabled());
  M2G_CHECK_EQ(plan->hidden_dim, d);
  M2G_CHECK_EQ(plan->num_heads, num_heads_);
  M2G_CHECK_GE(plan->max_nodes, n);
  M2G_CHECK_GE(block, n);
  M2G_CHECK_EQ(item->adjacency->size(), static_cast<size_t>(n) * n);
  const std::vector<bool>& adjacency = *item->adjacency;

  // Which attention rows must rerun: a row's alpha depends on its mask
  // membership, its own projections (s_src[i], and msg rows it
  // aggregates), s_dst / msg of every unmasked neighbour, and the s_edge
  // entries of its unmasked columns (which follow the pair's z). Rows
  // where none of those changed keep their cached aggregate bit for bit
  // — including across an insertion whose new column is masked out,
  // because MaskedSoftmaxRowRaw writes exact zeros for masked entries
  // and AccumulateRowMatMul skips zero coefficients.
  unsigned char* row_rec = plan->row_rec();
  for (int i = 0; i < n; ++i) {
    row_rec[i] = 0;
    if (item->row_changed[i] || item->node_dirty[i]) {
      row_rec[i] = 1;
      continue;
    }
    const size_t base = static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      if (adjacency[base + j] &&
          (item->node_dirty[j] || item->pair_dirty[base + j])) {
        row_rec[i] = 1;
        break;
      }
    }
  }
  // Which edge pairs must rerun: Eq. 23 reads z_ij, h_i and h_j (no
  // mask), so a pair reruns iff any of the three changed.
  unsigned char* pair_rec = plan->pair_rec();
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      pair_rec[base + j] = (item->pair_dirty[base + j] ||
                            item->node_dirty[i] || item->node_dirty[j])
                               ? 1
                               : 0;
    }
  }

  // A pair whose z changed refreshes its cached s_edge and z * W3 for
  // every head: one product per run of consecutive dirty pairs, which
  // sit in consecutive rows of the padded layout. The kernel starts each
  // element from +0.0, so a refreshed row has the full forward's bits.
  const int ew3_width = num_heads_ * dh;
  PackEdgeWeights(plan);
  for (int i = 0; i < n; ++i) {
    const unsigned char* dirty =
        item->pair_dirty + static_cast<size_t>(i) * n;
    int j = 0;
    while (j < n) {
      while (j < n && !dirty[j]) ++j;
      const int start = j;
      while (j < n && dirty[j]) ++j;
      if (j == start) continue;
      const size_t row = static_cast<size_t>(i) * block + start;
      EdgeProducts(item->z_in + row * d, j - start,
                   item->se + row * num_heads_, item->ew3 + row * ew3_width,
                   *plan);
    }
  }

  for (int p = 0; p < num_heads_; ++p) {
    const Head& head = heads_[p];
    // Per-node projections are recomputed in full: they are O(n d dh),
    // noise next to the n^2 terms, and reproduce the warm forward's bits
    // for clean rows for free.
    const int col0 = is_last_ ? 0 : p * dh;
    float* sum = is_last_ && p > 0 ? plan->head_rows.data() : nullptr;
    ProjectNodes(head, item->h_in, n, plan);
    const float* ew3_p = item->ew3 + p * dh;
    // Attention rows and edge pairs, only the recompute sets; cached
    // outputs are left untouched. Pairs with a clean z but a dirty
    // endpoint reuse the cached z * W3 and pay only the epilogue.
    for (int i = 0; i < n; ++i) {
      if (row_rec[i]) {
        AttentionRow(i, p, item->se, block, adjacency, n, col0, sum, plan);
      }
    }
    for (int i = 0; i < n; ++i) {
      const float* nw4_row = plan->nw4.data() + static_cast<size_t>(i) * dh;
      for (int j = 0; j < n; ++j) {
        const size_t r = static_cast<size_t>(i) * n + j;
        if (!pair_rec[r]) continue;
        float* out = plan->edge_out.data() + r * d;
        simd::GatEdgeRelu(
            ew3_p + (static_cast<size_t>(i) * block + j) * ew3_width,
            nw4_row, plan->nw5.data() + static_cast<size_t>(j) * dh, dh,
            HeadSlot(out, col0, sum), sum != nullptr ? out : nullptr);
      }
    }
  }
  if (is_last_) MeanOverHeads(n, row_rec, pair_rec, plan);

  // Residual + write-back: h_{l+1}[i] = h_l[i] + node_out[i] (the same
  // per-element addition order as the full path's in-place residual).
  // Each recomputed row is compared against its cached successor before
  // overwrite so the next layer's dirty set stays tight; rows with no
  // history (fresh nodes) are dirty by definition.
  const float* node_out = plan->node_out.data();
  const float* edge_out = plan->edge_out.data();
  float* scratch = plan->head_rows.data();  // free after the head loop
  for (int i = 0; i < n; ++i) {
    if (!row_rec[i]) {
      item->out_node_dirty[i] = 0;
      continue;
    }
    const float* hi = item->h_in + static_cast<size_t>(i) * d;
    const float* no = node_out + static_cast<size_t>(i) * d;
    for (int c = 0; c < d; ++c) scratch[c] = hi[c] + no[c];
    float* cached = item->h_out + static_cast<size_t>(i) * d;
    const bool dirty =
        item->fresh[i] ||
        std::memcmp(scratch, cached, sizeof(float) * d) != 0;
    item->out_node_dirty[i] = dirty ? 1 : 0;
    if (dirty) std::copy(scratch, scratch + d, cached);
  }
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    const size_t pbase = static_cast<size_t>(i) * block;
    for (int j = 0; j < n; ++j) {
      const size_t r = base + j;
      if (!pair_rec[r]) {
        item->out_pair_dirty[r] = 0;
        continue;
      }
      const float* zi = item->z_in + (pbase + j) * d;
      const float* eo = edge_out + r * d;
      for (int c = 0; c < d; ++c) scratch[c] = zi[c] + eo[c];
      float* cached = item->z_out + (pbase + j) * d;
      const bool dirty =
          item->fresh[i] || item->fresh[j] ||
          std::memcmp(scratch, cached, sizeof(float) * d) != 0;
      item->out_pair_dirty[r] = dirty ? 1 : 0;
      if (dirty) std::copy(scratch, scratch + d, cached);
    }
  }
}

}  // namespace m2g::core
