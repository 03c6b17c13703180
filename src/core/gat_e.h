#ifndef M2G_CORE_GAT_E_H_
#define M2G_CORE_GAT_E_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/encode_plan.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace m2g::core {

/// Output of one GAT-e layer: updated node and edge representations.
struct GatEOutput {
  Tensor nodes;  // (n, hidden_dim)
  Tensor edges;  // (n*n, hidden_dim)
};

/// Destination buffers for the per-head intermediates a warming encode
/// donates to an encode-session cache (core/incremental_encode): the
/// Eq. 23 z*W3 product and the Eq. 20 s_edge column, per head, stored in
/// row blocks of `block` entries so pair (i, j) lands at row i*block + j
/// regardless of n. Capturing changes no output bit: the edge epilogue
/// reads z*W3 from the cache row instead of its own output slot.
struct GatECapture {
  int block = 0;               // pair-row stride, >= n
  std::vector<float*> ew3;     // per head: rows of head_dim floats
  std::vector<float*> se;      // per head: rows of 1 float
};

/// One level's slice of an incremental re-encode step
/// (LevelEncoder::EncodeDelta): the layer's input/output node and edge
/// representations live in an encode-session cache (padded pair stride
/// `block`), and the dirty flags say which of them changed bitwise since
/// the cached forward. ForwardFastDelta recomputes exactly the rows whose
/// inputs (or softmax masks) changed and reuses every other cached value
/// — reuse is bitwise-exact because every kernel involved is
/// deterministic and row-local (see incremental_encode.cc).
struct GatEDeltaItem {
  int n = 0;
  const std::vector<bool>* adjacency = nullptr;  // current graph's mask
  const float* h_in = nullptr;   // (n, d) rows of the layer-input nodes
  const float* z_in = nullptr;   // pair rows at stride `block`
  float* h_out = nullptr;        // cached next-layer nodes, updated in place
  float* z_out = nullptr;        // cached next-layer edges, updated in place
  int block = 0;                 // pair-row stride of z/ew3/se buffers
  std::vector<float*> ew3;       // per head: cached z_l * W3 rows, updated
  std::vector<float*> se;        // per head: cached s_edge rows, updated
  const unsigned char* node_dirty = nullptr;   // n: h_in row changed
  const unsigned char* pair_dirty = nullptr;   // n*n dense: z_in pair changed
  const unsigned char* row_changed = nullptr;  // n: softmax mask membership changed
  const unsigned char* fresh = nullptr;        // n: node has no cached history
  unsigned char* out_node_dirty = nullptr;     // n: h_out row changed
  unsigned char* out_pair_dirty = nullptr;     // n*n dense: z_out pair changed
};

/// The paper's GAT-e module (Eq. 20-26): an edge-aware graph attention
/// layer that (a) mixes edge embeddings into the attention coefficients
/// via the a_e term and (b) updates edge representations from the incident
/// nodes (Eq. 23). Multi-head: hidden layers concatenate P heads of width
/// hidden/P (Eq. 24-25); a layer constructed with `is_last == true`
/// averages P full-width heads and delays the ReLU (Eq. 26).
class GatELayer : public nn::Module {
 public:
  GatELayer(const ModelConfig& config, bool is_last, Rng* rng);

  /// `adjacency` is the n*n Eq. 15 connectivity (with self-loops); the
  /// attention softmax for node i runs over {j : adj[i*n+j]}. This is
  /// the autograd path (training, and the fast path's parity reference);
  /// it increments encode.legacy_layers.
  GatEOutput Forward(const Tensor& nodes, const Tensor& edges,
                     const std::vector<bool>& adjacency) const;

  /// No-grad fused path: writes Forward(...)'s out.nodes into the first
  /// n rows of plan->node_out and out.edges into the first n*n rows of
  /// plan->edge_out, bit for bit, with no autograd nodes and no (n^2, d)
  /// per-head temporaries. Requires GradMode disabled; increments
  /// encode.fast_layers. `capture`, when given, also receives the
  /// per-head z*W3 and s_edge intermediates (the session warm-up).
  void ForwardFast(const Matrix& nodes, const Matrix& edges,
                   const std::vector<bool>& adjacency, EncodePlan* plan,
                   GatECapture* capture = nullptr) const;

  /// ForwardFast restricted to what changed since a cached forward: runs
  /// the same row kernels over the attention rows whose mask or inputs
  /// changed and the edge pairs with a changed endpoint or z, reuses every
  /// other cached value, writes the layer outputs into item->h_out/z_out
  /// in place and reports which of them changed (out_*_dirty) so the next
  /// layer's delta stays minimal. Bitwise-identical to ForwardFast on the
  /// full current inputs (incremental_encode_test). Requires GradMode
  /// disabled.
  void ForwardFastDelta(GatEDeltaItem* item, EncodePlan* plan) const;

  int num_heads() const { return num_heads_; }
  /// Output width of one head: hidden/P on hidden layers, hidden on the
  /// last (Eq. 24 vs 26).
  int head_dim() const { return head_dim_; }

 private:
  struct Head {
    Tensor w1;      // (d, dh) attention transform (Eq. 20)
    Tensor av_src;  // (dh, 1) first half of a_v
    Tensor av_dst;  // (dh, 1) second half of a_v
    Tensor ae;      // (d, 1) edge attention vector
    Tensor w2;      // (d, dh) message transform (Eq. 22)
    Tensor w3;      // (d, dh) edge update (Eq. 23)
    Tensor w4;      // (d, dh)
    Tensor w5;      // (d, dh)
  };

  // Row kernels shared by ForwardFast and ForwardFastDelta.
  /// Head p's six per-node products (Eq. 20/22/23) into the plan.
  void ProjectNodes(const Head& head, const float* nodes, int n,
                    EncodePlan* plan) const;
  /// Attention row i (Eq. 20-22) into plan->node_out at the head's slot
  /// (concat columns at `col0`, or the last layer's scratch `sum`).
  void AttentionRow(int i, const float* s_edge_row,
                    const std::vector<bool>& adjacency, int n, int col0,
                    float* sum, EncodePlan* plan) const;
  /// Eq. 26 1/P epilogue over the masked rows and pairs (null = all).
  void MeanOverHeads(int n, const unsigned char* rows,
                     const unsigned char* pairs, EncodePlan* plan) const;

  int hidden_dim_;
  int num_heads_;
  int head_dim_;
  bool is_last_;
  float leaky_slope_;
  std::vector<Head> heads_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_GAT_E_H_
