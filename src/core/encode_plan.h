#ifndef M2G_CORE_ENCODE_PLAN_H_
#define M2G_CORE_ENCODE_PLAN_H_

#include "core/config.h"
#include "tensor/matrix.h"

namespace m2g::core {

/// Request-scoped scratch for the encode fast path (the encoder analogue
/// of AttentionRouteDecoder::KeyCache): every buffer a fused GAT-e layer
/// needs, sized once per request from the largest level's node count and
/// reused across levels, layers and heads. All buffers draw from the
/// thread-local tensor pool, so a plan built inside a warm ArenaGuard
/// scope allocates without touching malloc — and, like the key cache, a
/// plan must not outlive the request's arena scope.
///
/// Per-head buffers (wh, msg, nw4, nw5) are packed at the head's output
/// width dh (hidden/P on hidden layers, hidden on the last), so a buffer
/// sized (max_nodes, hidden_dim) covers both layer kinds. The n^2-sized
/// edge products of all heads land in s_edge and edge_out (or a session
/// cache) directly; the only other buffers are O(n d) or smaller.
struct EncodePlan {
  /// Builds the scratch for graphs of up to `max_nodes` nodes at encoder
  /// width `hidden_dim` with `num_heads` attention heads (ModelConfig's
  /// default P unless given). Records the encode.plan_build.ms span and
  /// the encode.plan_builds counter.
  EncodePlan(int max_nodes, int hidden_dim,
             int num_heads = ModelConfig().num_heads);

  int max_nodes = 0;
  int hidden_dim = 0;
  int num_heads = 0;

  Matrix wh;          // (max_n, d)    W1-projected nodes (Eq. 20)
  Matrix msg;         // (max_n, d)    W2 messages (Eq. 22)
  Matrix nw4;         // (max_n, d)    nodes * W4, hoisted out of Eq. 23
  Matrix nw5;         // (max_n, d)    nodes * W5, hoisted out of Eq. 23
  Matrix s_src;       // (max_n, 1)    wh * av_src
  Matrix s_dst;       // (max_n, 1)    wh * av_dst
  Matrix s_edge;      // (max_n^2, P)  edges * [ae_0 | ... | ae_P-1]
  Matrix s_edge_row;  // (1, max_n)    one head's s_edge for one row
  Matrix ae;          // (d, P)        [ae_0 | ... | ae_P-1], packed per layer
  Matrix w3;          // (d, d)        [W3_0 | ... | W3_P-1], hidden layers
  Matrix logits;      // (1, max_n)    one attention row's logits
  Matrix alpha;       // (1, max_n)    one attention row's softmax
  Matrix head_rows;   // (max_n, d)    later heads' rows; row scratch
  Matrix node_out;    // (max_n, d)    layer output, pre-residual
  Matrix edge_out;    // (max_n^2, d)  layer output, pre-residual

  /// Byte flags for the delta path, carved from one pooled buffer so a
  /// steady-state delta step allocates nothing. ForwardFastDelta's
  /// recompute sets: one byte per node (max_n) and per pair (max_n^2).
  unsigned char* row_rec() {
    return reinterpret_cast<unsigned char*>(flags.data());
  }
  unsigned char* pair_rec() { return row_rec() + max_nodes; }
  /// LevelEncoder::EncodeDelta's dirty sets: kDeltaNodeSets node sets of
  /// max_n bytes, then kDeltaPairSets pair sets of max_n^2 bytes.
  static constexpr int kDeltaNodeSets = 4;
  static constexpr int kDeltaPairSets = 2;
  unsigned char* delta_flags() {
    return pair_rec() + static_cast<size_t>(max_nodes) * max_nodes;
  }

 private:
  Matrix flags;
};

}  // namespace m2g::core

#endif  // M2G_CORE_ENCODE_PLAN_H_
