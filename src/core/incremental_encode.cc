// Incremental re-encode on order arrival: the delta side of the encode
// fast path. A warm LevelEncodeCache holds every per-layer value a GAT-e
// forward produced for a courier's last graph; when the next request's
// graph differs by a single inserted/removed node (or pure feature drift
// on an aligned node set), EncodeDelta recomputes only the attention
// rows and edge pairs whose inputs or softmax masks changed and reuses
// everything else byte for byte.
//
// Why bitwise reuse is sound: every kernel on this path (MatMulInto /
// AccumulateRowMatMul / GatLogitsRow / MaskedSoftmaxRowRaw) is
// deterministic and row-local, so a cached output row is exactly what
// recomputation would produce whenever its inputs are bitwise-unchanged.
// The one cross-n subtlety is an attention row whose mask did not change
// across an insertion: the new column is masked out, MaskedSoftmaxRowRaw
// computes its max and denominator over unmasked entries only and writes
// exact 0.0f to masked ones, and AccumulateRowMatMul skips zero
// coefficients — so the aggregation adds the same terms in the same
// order as before and the cached row stands. Dirtiness is tracked by
// memcmp (stricter than float equality), and anything not explainable as
// a single-node delta falls back to a full encode.

#include "core/incremental_encode.h"

#include <cstring>
#include <optional>
#include <utility>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "tensor/grad_mode.h"

namespace m2g::core {
namespace {

size_t MatrixBytes(const Matrix& m) { return m.size() * sizeof(float); }

/// Shifts cached node rows for an insertion at `pos` (descending, in
/// place; row `pos` is left stale — the caller marks it fresh).
void ShiftNodeRowsForInsert(Matrix* m, int old_n, int pos) {
  const int w = m->cols();
  float* data = m->data();
  for (int i = old_n; i > pos; --i) {
    std::memcpy(data + static_cast<size_t>(i) * w,
                data + static_cast<size_t>(i - 1) * w, sizeof(float) * w);
  }
}

void ShiftNodeRowsForRemove(Matrix* m, int old_n, int pos) {
  const int w = m->cols();
  float* data = m->data();
  for (int i = pos; i < old_n - 1; ++i) {
    std::memcpy(data + static_cast<size_t>(i) * w,
                data + static_cast<size_t>(i + 1) * w, sizeof(float) * w);
  }
}

/// Shifts cached pair rows (padded stride `cap`) for an insertion at
/// `pos`. Descending order: every source row index is <= its destination,
/// so the move is safe in place. Rows touching the inserted index stay
/// stale — the delta marks all fresh-incident pairs dirty.
void ShiftPairRowsForInsert(Matrix* m, int cap, int old_n, int pos) {
  const int w = m->cols();
  const int n = old_n + 1;
  float* data = m->data();
  for (int i = n - 1; i >= 0; --i) {
    if (i == pos) continue;
    const int oi = i < pos ? i : i - 1;
    for (int j = n - 1; j >= 0; --j) {
      if (j == pos) continue;
      const int oj = j < pos ? j : j - 1;
      const size_t dst = (static_cast<size_t>(i) * cap + j) * w;
      const size_t src = (static_cast<size_t>(oi) * cap + oj) * w;
      if (src == dst) continue;
      std::memcpy(data + dst, data + src, sizeof(float) * w);
    }
  }
}

/// Ascending counterpart for a removal at before-index `pos` (sources
/// are >= destinations).
void ShiftPairRowsForRemove(Matrix* m, int cap, int old_n, int pos) {
  const int w = m->cols();
  const int n = old_n - 1;
  float* data = m->data();
  for (int i = 0; i < n; ++i) {
    const int oi = i < pos ? i : i + 1;
    for (int j = 0; j < n; ++j) {
      const int oj = j < pos ? j : j + 1;
      const size_t dst = (static_cast<size_t>(i) * cap + j) * w;
      const size_t src = (static_cast<size_t>(oi) * cap + oj) * w;
      if (src == dst) continue;
      std::memcpy(data + dst, data + src, sizeof(float) * w);
    }
  }
}

/// Re-indexes every cached buffer after a mid-sequence insert/remove so
/// cached values line up with the new graph's node numbering. Appends
/// and end-removals skip this entirely (fixed padded strides keep every
/// index stable).
void RemapCache(LevelEncodeCache* cache, const graph::LevelGraphDelta& delta,
                int old_n) {
  const bool insert = delta.kind == graph::LevelDeltaKind::kInsert;
  for (Matrix& m : cache->h) {
    insert ? ShiftNodeRowsForInsert(&m, old_n, delta.pos)
           : ShiftNodeRowsForRemove(&m, old_n, delta.pos);
  }
  auto shift_pairs = [&](Matrix& m) {
    insert ? ShiftPairRowsForInsert(&m, cache->cap, old_n, delta.pos)
           : ShiftPairRowsForRemove(&m, cache->cap, old_n, delta.pos);
  };
  for (Matrix& m : cache->z) shift_pairs(m);
  for (Matrix& m : cache->ew3) shift_pairs(m);
  for (Matrix& m : cache->se) shift_pairs(m);
}

/// Dense (n, d) / (n*n, d) copies of the cached final-layer
/// representations — the encoder's output contract.
EncodedLevel MaterializeOutputs(const LevelEncodeCache& cache, int n) {
  const int d = cache.hidden;
  const int cap = cache.cap;
  Matrix nodes = Matrix::Uninit(n, d);
  std::memcpy(nodes.data(), cache.h[cache.layers].data(),
              sizeof(float) * static_cast<size_t>(n) * d);
  Matrix edges = Matrix::Uninit(n * n, d);
  for (int i = 0; i < n; ++i) {
    std::memcpy(edges.data() + static_cast<size_t>(i) * n * d,
                cache.z[cache.layers].data() + static_cast<size_t>(i) * cap * d,
                sizeof(float) * static_cast<size_t>(n) * d);
  }
  return {Tensor::Constant(std::move(nodes)),
          Tensor::Constant(std::move(edges))};
}

}  // namespace

size_t LevelEncodeCache::bytes() const {
  size_t total = 0;
  for (const Matrix& m : h) total += MatrixBytes(m);
  for (const Matrix& m : z) total += MatrixBytes(m);
  for (const Matrix& m : ew3) total += MatrixBytes(m);
  for (const Matrix& m : se) total += MatrixBytes(m);
  return total;
}

void IncrementalState::Reset() { *this = IncrementalState(); }

size_t IncrementalState::bytes() const {
  size_t total = location.bytes() + aoi.bytes() + MatrixBytes(u);
  const auto level_bytes = [](const graph::LevelGraph& g) {
    return MatrixBytes(g.node_continuous) + MatrixBytes(g.edge_features) +
           g.adjacency.size() / 8 +
           (g.node_aoi_id.size() + g.node_aoi_type.size()) * sizeof(int);
  };
  return total + level_bytes(graph.location) + level_bytes(graph.aoi) +
         graph.loc_to_aoi.size() * sizeof(int);
}

std::optional<EncodedLevel> LevelEncoder::EncodeDelta(
    const graph::LevelGraph& level, const graph::LevelGraph& prev,
    const graph::LevelGraphDelta& delta, const Tensor& global_embed,
    EncodePlan* plan, LevelEncodeCache* cache) const {
  using graph::LevelDeltaKind;
  M2G_CHECK(use_graph_);
  M2G_CHECK(!GradMode::enabled());
  const int n = level.n;
  if (!cache->warm() || n <= 0 || n > cache->cap || n > plan->max_nodes ||
      delta.kind == LevelDeltaKind::kStructural) {
    return std::nullopt;
  }
  M2G_CHECK_EQ(cache->n, prev.n);
  M2G_CHECK_EQ(cache->hidden, plan->hidden_dim);

  if (delta.kind == LevelDeltaKind::kIdentical) {
    return MaterializeOutputs(*cache, n);
  }

  const int d = cache->hidden;
  const int heads = cache->heads;
  const int pn = prev.n;

  // 1. Line cached rows up with the new numbering. Appends and
  // end-removals are index-stable under the padded stride and skip this.
  if (delta.kind == LevelDeltaKind::kInsert && delta.pos != pn) {
    RemapCache(cache, delta, pn);
  } else if (delta.kind == LevelDeltaKind::kRemove && delta.pos != pn - 1) {
    RemapCache(cache, delta, pn);
  }

  // 2. Dirty seeds from the raw graphs (cheap, before any float work).
  std::vector<unsigned char> fresh(n, 0);
  if (delta.kind == LevelDeltaKind::kInsert) fresh[delta.pos] = 1;

  // Mask-membership change per attention row, under the index mapping.
  // A fresh column that is masked out does NOT change a row (the reuse
  // case the padded softmax semantics make exact).
  std::vector<unsigned char> row_changed(n, 0);
  for (int i = 0; i < n; ++i) {
    if (fresh[i]) {
      row_changed[i] = 1;
      continue;
    }
    const int oi = delta.OldIndex(i);
    bool changed = false;
    for (int j = 0; j < n && !changed; ++j) {
      const int oj = delta.OldIndex(j);
      const bool now = level.adjacency[static_cast<size_t>(i) * n + j];
      if (oj < 0) {
        changed = now;
      } else {
        changed =
            now != prev.adjacency[static_cast<size_t>(oi) * pn + oj];
      }
    }
    if (!changed && delta.kind == LevelDeltaKind::kRemove) {
      // The removed column leaves the mask only if it was ever in it.
      changed = prev.adjacency[static_cast<size_t>(oi) * pn + delta.pos];
    }
    row_changed[i] = changed ? 1 : 0;
  }

  // Raw edge-feature (and adjacency-bit) drift per pair seeds the z_0
  // dirty set; fresh-incident pairs have no history and are always
  // dirty.
  const int de = level.edge_features.cols();
  std::vector<unsigned char> pair_dirty(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    const int oi = delta.OldIndex(i);
    for (int j = 0; j < n; ++j) {
      const size_t r = static_cast<size_t>(i) * n + j;
      const int oj = delta.OldIndex(j);
      if (oi < 0 || oj < 0) {
        pair_dirty[r] = 1;
        continue;
      }
      const size_t ro = static_cast<size_t>(oi) * pn + oj;
      pair_dirty[r] =
          (level.adjacency[r] != prev.adjacency[ro] ||
           std::memcmp(level.edge_features.data() + r * de,
                       prev.edge_features.data() + ro * de,
                       sizeof(float) * de) != 0)
              ? 1
              : 0;
    }
  }

  // 3. Node embeddings + input projection recomputed in full (O(n d^2),
  // noise) and diffed row-by-row against the cached h_0.
  Tensor nodes = feature_embed_->EmbedNodes(level);
  nodes = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, n)));
  const Matrix& h0 = nodes.value();
  std::vector<unsigned char> node_dirty(n, 0);
  int dirty_count = 0;
  for (int i = 0; i < n; ++i) {
    const bool dirty =
        fresh[i] ||
        std::memcmp(h0.data() + static_cast<size_t>(i) * d,
                    cache->h[0].data() + static_cast<size_t>(i) * d,
                    sizeof(float) * d) != 0;
    node_dirty[i] = dirty ? 1 : 0;
    dirty_count += dirty ? 1 : 0;
  }
  // Cost guard: past half the nodes, a delta step approaches full-encode
  // flops while paying extra bookkeeping — bail before mutating values.
  if (2 * dirty_count > n) return std::nullopt;

  for (int i = 0; i < n; ++i) {
    if (!node_dirty[i]) continue;
    std::memcpy(cache->h[0].data() + static_cast<size_t>(i) * d,
                h0.data() + static_cast<size_t>(i) * d, sizeof(float) * d);
  }

  // 4. Edge embeddings: dense recompute (O(n^2 d_e d), ~1% of a full
  // encode), dirty pair rows refreshed in the cache.
  Tensor edges = feature_embed_->EmbedEdges(level);
  const Matrix& z0 = edges.value();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const size_t r = static_cast<size_t>(i) * n + j;
      if (!pair_dirty[r]) continue;
      std::memcpy(
          cache->z[0].data() +
              (static_cast<size_t>(i) * cache->cap + j) * d,
          z0.data() + r * d, sizeof(float) * d);
    }
  }

  // 5. Layer-by-layer delta forward; each layer reports what actually
  // changed so the dirty frontier stays tight.
  std::vector<unsigned char> out_node(n, 0);
  std::vector<unsigned char> out_pair(static_cast<size_t>(n) * n, 0);
  for (size_t l = 0; l < layers_.size(); ++l) {
    GatEDeltaItem item;
    item.n = n;
    item.adjacency = &level.adjacency;
    item.h_in = cache->h[l].data();
    item.z_in = cache->z[l].data();
    item.h_out = cache->h[l + 1].data();
    item.z_out = cache->z[l + 1].data();
    item.block = cache->cap;
    item.ew3.reserve(heads);
    item.se.reserve(heads);
    for (int p = 0; p < heads; ++p) {
      item.ew3.push_back(cache->ew3[l * heads + p].data());
      item.se.push_back(cache->se[l * heads + p].data());
    }
    item.node_dirty = node_dirty.data();
    item.pair_dirty = pair_dirty.data();
    item.row_changed = row_changed.data();
    item.fresh = fresh.data();
    item.out_node_dirty = out_node.data();
    item.out_pair_dirty = out_pair.data();
    layers_[l]->ForwardFastDelta(&item, plan);
    node_dirty.swap(out_node);
    pair_dirty.swap(out_pair);
  }
  cache->n = n;
  return MaterializeOutputs(*cache, n);
}

}  // namespace m2g::core
