#ifndef M2G_CORE_INCREMENTAL_ENCODE_H_
#define M2G_CORE_INCREMENTAL_ENCODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/multi_level_graph.h"
#include "tensor/matrix.h"

namespace m2g::core {

/// Everything a warm GAT-e encode of one level graph leaves behind that a
/// single-node delta can reuse: per-layer node representations h_0..h_K,
/// per-layer edge representations z_0..z_K, and the per-layer z*W3
/// products and s_edge entries of all heads — the two n^2-sized
/// intermediates whose recomputation would otherwise dominate a delta
/// step. A pair's ew3 row holds every head's z*W3 side by side (head p at
/// column p*dh_l) and its se row every head's s_edge, the layout the
/// head-fused edge products write (GatECapture).
///
/// Edge-indexed buffers (z, ew3, se) store pair (i, j) at row
/// i*cap + j with a fixed padded stride `cap`, independent of the current
/// node count: an order arriving at the end of the node ordering (the
/// common case — the feature extractor sorts pending orders by ascending
/// id, so new ids append) leaves every cached row in place, and an
/// insert/removal in the middle is an in-place row shift. Capacity grows
/// geometrically on full encodes; a delta that would exceed `cap` falls
/// back instead.
///
/// All buffers are pool-backed Matrices with value semantics: they may
/// outlive any request arena and be freed from another thread, so a
/// session store can hold caches long-lived across serving threads.
struct LevelEncodeCache {
  int cap = 0;     // padded node capacity (pair-row stride)
  int n = 0;       // node count currently encoded (0 = cold)
  int hidden = 0;  // d
  int layers = 0;  // K
  int heads = 0;   // P

  std::vector<Matrix> h;    // K+1 entries, (cap, d)
  std::vector<Matrix> z;    // K+1 entries, (cap*cap, d)
  std::vector<Matrix> ew3;  // K entries, (cap*cap, P*dh_l)
  std::vector<Matrix> se;   // K entries, (cap*cap, P)

  bool warm() const { return n > 0; }
  void Reset() { *this = LevelEncodeCache(); }
  /// Approximate heap footprint (the float payloads; bookkeeping is
  /// noise) — the unit of the session store's byte budget.
  size_t bytes() const;
};

/// Why a PredictIncremental call did not (or could not) take the delta
/// path. kNone means the delta path ran.
enum class IncrementalFallback {
  kNone = 0,
  /// No session state (Predict), the BiLSTM ablation or grad mode:
  /// sessions inert.
  kDisabled,
  /// No warm state yet (first request of a session, or after Reset).
  kCold,
  /// The global/courier embedding changed bitwise (weather, time bucket,
  /// courier stats): it feeds every node, so everything is dirty.
  kGlobalChanged,
  /// A level diff was not single-node-explainable.
  kStructural,
  /// A level outgrew its cache capacity.
  kCapacity,
  /// Scheduled refresh: every 64th update through a session re-encodes
  /// in full.
  kRefresh,
  /// The delta dirtied too many nodes to be worth it (e.g. the courier
  /// moved, shifting every node's relative features).
  kDirtySpread,
};

/// Outcome report for tests and wide events.
struct IncrementalResult {
  bool delta = false;  // true when the delta path produced the encodings
  IncrementalFallback fallback = IncrementalFallback::kNone;
};

/// Per-courier incremental-encode state: the caches for both levels, the
/// global embedding and graphs they encode, and the staleness counter.
struct IncrementalState {
  bool warm = false;
  Matrix u;                      // cached global embedding value
  graph::MultiLevelGraph graph;  // the graphs the caches encode
  LevelEncodeCache location;
  LevelEncodeCache aoi;
  uint64_t deltas_since_full = 0;

  void Reset();
  size_t bytes() const;
};

}  // namespace m2g::core

#endif  // M2G_CORE_INCREMENTAL_ENCODE_H_
