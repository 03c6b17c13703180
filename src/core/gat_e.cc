#include "core/gat_e.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "nn/init.h"
#include "obs/metrics.h"
#include "tensor/grad_mode.h"

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
/// seeds the row and later heads go through the (1, d) scratch `sum`
/// (non-null only then) and add in, the sequential elementwise adds of
/// the autograd epilogue.
inline float* HeadSlot(float* out_row, int col0, float* sum) {
  return sum != nullptr ? sum : out_row + col0;
}

/// Eq. 23/25 for one edge pair and head: dst = ReLU(ew3 + (nw4_i +
/// nw5_j)) in the autograd association order, then out += dst on the
/// last layer's later heads. `ew3` may alias `dst`. Every pointer is
/// hoisted by the caller: this runs n^2 times per head.
inline void EdgePair(const float* ew3, const float* nw4_row,
                     const float* nw5_row, int dh, float* dst, float* sum,
                     float* out) {
  for (int c = 0; c < dh; ++c) {
    const float v = ew3[c] + (nw4_row[c] + nw5_row[c]);
    dst[c] = v > 0.0f ? v : 0.0f;
  }
  if (sum != nullptr) {
    for (int c = 0; c < dh; ++c) out[c] += dst[c];
  }
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
    Tensor s_dst_row = Transpose(MatMul(wh, head.av_dst));  // (1, n)
    Tensor s_edge = MatMul(edges, head.ae);        // (n*n, 1)
    // Messages. (Eq. 22 as printed applies W2 to h_i; aggregating the
    // *neighbour* representation h_j is the standard GAT formulation and
    // the only reading under which attention weights matter, so we use
    // h_j.)
    Tensor messages = MatMul(nodes, head.w2);      // (n, dh)

    std::vector<Tensor> out_rows;
    out_rows.reserve(n);
    for (int i = 0; i < n; ++i) {
      // Attention logits over node i's neighbourhood.
      Tensor s_e_row = Transpose(SliceRows(s_edge, i * n, n));  // (1, n)
      Tensor logits = LeakyRelu(
          AddScalarTensor(Add(s_dst_row, s_e_row), Row(s_src, i)),
          leaky_slope_);
      std::vector<bool> mask(adjacency.begin() + i * n,
                             adjacency.begin() + (i + 1) * n);
      Tensor alpha = MaskedSoftmaxRow(logits, mask);  // Eq. 21
      out_rows.push_back(MatMul(alpha, messages));    // (1, dh)
    }
    Tensor head_nodes = ConcatRows(out_rows);
    if (!is_last_) head_nodes = Relu(head_nodes);  // Eq. 24 vs Eq. 26
    node_heads.push_back(head_nodes);

    // Eq. 23 / 25: z'_ij = ReLU(W3 z_ij + W4 h_i + W5 h_j).
    Tensor edge_update =
        Add(MatMul(edges, head.w3),
            Add(MatMul(GatherRows(nodes, src_idx), head.w4),
                MatMul(GatherRows(nodes, dst_idx), head.w5)));
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

// The row kernels below (with HeadSlot and EdgePair above) are the whole
// fused layer: ForwardFast runs them over every row and pair,
// ForwardFastDelta over its dirty sets. Keeping one copy of each is what
// keeps the two paths byte-identical. They are inline so the per-row and
// per-pair calls cost nothing in the n^2 loops.

inline void GatELayer::ProjectNodes(const Head& head, const float* nodes,
                                    int n, EncodePlan* plan) const {
  const int d = hidden_dim_;
  const int dh = head_dim_;
  // Eq. 20/22 projections into the plan's per-head buffers. The
  // (1,)-wide products take AccumulateRowMatMul's branchy path, the same
  // path MatMulRaw picks for them on the autograd graph.
  MatMulInto(nodes, n, d, head.w1.value().data(), dh, plan->wh.data());
  MatMulInto(plan->wh.data(), n, dh, head.av_src.value().data(), 1,
             plan->s_src.data());
  MatMulInto(plan->wh.data(), n, dh, head.av_dst.value().data(), 1,
             plan->s_dst.data());
  MatMulInto(nodes, n, d, head.w2.value().data(), dh, plan->msg.data());
  // Eq. 23 node terms, hoisted out of the n^2 edge loop: the autograd
  // MatMul(GatherRows(nodes, idx), W) accumulates every gathered row from
  // zero, so its row (i, j) is bit-identical to row i of nodes * W.
  MatMulInto(nodes, n, d, head.w4.value().data(), dh, plan->nw4.data());
  MatMulInto(nodes, n, d, head.w5.value().data(), dh, plan->nw5.data());
}

inline void GatELayer::AttentionRow(int i, const float* s_edge_row,
                                    const std::vector<bool>& adjacency,
                                    int n, int col0, float* sum,
                                    EncodePlan* plan) const {
  // Logits -> masked softmax -> aggregation, fused (Eq. 20-22), with no
  // (1, n) or (1, dh) temporaries.
  const int dh = head_dim_;
  GatLogitsRow(plan->s_dst.data(), s_edge_row, plan->s_src.data()[i],
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
  M2G_CHECK_EQ(nodes.cols(), d);
  M2G_CHECK_EQ(edges.rows(), n * n);
  M2G_CHECK_EQ(edges.cols(), d);
  M2G_CHECK_EQ(adjacency.size(), static_cast<size_t>(n) * n);
  M2G_CHECK_GE(plan->max_nodes, n);
  FastLayerCounter().Increment();

  // All the matmul/logit kernels dispatch through the runtime SIMD tier
  // (tensor/simd.h), bitwise-identical on every tier.
  float* s_edge = plan->s_edge.data();
  float* edge_out = plan->edge_out.data();
  const float* nw4 = plan->nw4.data();
  const float* nw5 = plan->nw5.data();
  for (int p = 0; p < num_heads_; ++p) {
    const Head& head = heads_[p];
    const int col0 = is_last_ ? 0 : p * dh;
    float* sum = is_last_ && p > 0 ? plan->row.data() : nullptr;
    MatMulInto(edges.data(), n * n, d, head.ae.value().data(), 1, s_edge);
    ProjectNodes(head, nodes.data(), n, plan);
    for (int i = 0; i < n; ++i) {
      const float* row = s_edge + static_cast<size_t>(i) * n;
      if (capture != nullptr) {
        // Donate s_edge to the session cache in its padded layout.
        std::copy(row, row + n,
                  capture->se[p] + static_cast<size_t>(i) * capture->block);
      }
      AttentionRow(i, row, adjacency, n, col0, sum, plan);
    }
    // z_ij * W3 lands in the pair's head slot, or in the session cache
    // row when warming one, and EdgePair finishes it from there.
    for (int i = 0; i < n; ++i) {
      const float* nw4_row = nw4 + static_cast<size_t>(i) * dh;
      for (int j = 0; j < n; ++j) {
        const size_t r = static_cast<size_t>(i) * n + j;
        float* out = edge_out + r * d;
        float* dst = HeadSlot(out, col0, sum);
        float* ew3 =
            capture != nullptr
                ? capture->ew3[p] +
                      (static_cast<size_t>(i) * capture->block + j) * dh
                : dst;
        std::fill(ew3, ew3 + dh, 0.0f);
        AccumulateRowMatMul(edges.data() + r * d, d, head.w3.value().data(),
                            dh, ew3);
        EdgePair(ew3, nw4_row, nw5 + static_cast<size_t>(j) * dh, dh, dst,
                 sum, out);
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
  std::vector<unsigned char> row_rec(n, 0);
  for (int i = 0; i < n; ++i) {
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
  std::vector<unsigned char> pair_rec(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      pair_rec[base + j] = (item->pair_dirty[base + j] ||
                            item->node_dirty[i] || item->node_dirty[j])
                               ? 1
                               : 0;
    }
  }

  for (int p = 0; p < num_heads_; ++p) {
    const Head& head = heads_[p];
    // Per-node projections are recomputed in full: they are O(n d dh),
    // noise next to the n^2 terms, and reproduce the warm forward's bits
    // for clean rows for free.
    const int col0 = is_last_ ? 0 : p * dh;
    float* sum = is_last_ && p > 0 ? plan->row.data() : nullptr;
    ProjectNodes(head, item->h_in, n, plan);
    float* se = item->se[p];
    float* ew3 = item->ew3[p];
    for (int i = 0; i < n; ++i) {
      const size_t base = static_cast<size_t>(i) * n;
      const size_t pbase = static_cast<size_t>(i) * block;
      for (int j = 0; j < n; ++j) {
        if (!item->pair_dirty[base + j]) continue;
        // A pair whose z changed refreshes its cached s_edge and z * W3
        // (zeroed accumulator + AccumulateRowMatMul: MatMulInto's exact
        // bits for that row).
        const float* z = item->z_in + (pbase + j) * d;
        se[pbase + j] = 0.0f;
        AccumulateRowMatMul(z, d, head.ae.value().data(), 1, se + pbase + j);
        float* e3 = ew3 + (pbase + j) * dh;
        std::fill(e3, e3 + dh, 0.0f);
        AccumulateRowMatMul(z, d, head.w3.value().data(), dh, e3);
      }
    }
    // Attention rows and edge pairs, only the recompute sets; cached
    // outputs are left untouched. Pairs with a clean z but a dirty
    // endpoint reuse the cached z * W3 and pay only the epilogue.
    for (int i = 0; i < n; ++i) {
      if (row_rec[i]) {
        AttentionRow(i, se + static_cast<size_t>(i) * block, adjacency, n,
                     col0, sum, plan);
      }
    }
    for (int i = 0; i < n; ++i) {
      const float* nw4_row = plan->nw4.data() + static_cast<size_t>(i) * dh;
      for (int j = 0; j < n; ++j) {
        const size_t r = static_cast<size_t>(i) * n + j;
        if (!pair_rec[r]) continue;
        float* out = plan->edge_out.data() + r * d;
        EdgePair(ew3 + (static_cast<size_t>(i) * block + j) * dh, nw4_row,
                 plan->nw5.data() + static_cast<size_t>(j) * dh, dh,
                 HeadSlot(out, col0, sum), sum, out);
      }
    }
  }
  if (is_last_) MeanOverHeads(n, row_rec.data(), pair_rec.data(), plan);

  // Residual + write-back: h_{l+1}[i] = h_l[i] + node_out[i] (the same
  // per-element addition order as the full path's in-place residual).
  // Each recomputed row is compared against its cached successor before
  // overwrite so the next layer's dirty set stays tight; rows with no
  // history (fresh nodes) are dirty by definition.
  const float* node_out = plan->node_out.data();
  const float* edge_out = plan->edge_out.data();
  float* scratch = plan->row.data();  // (1, d); free after the head loop
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
