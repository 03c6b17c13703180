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

/// Destination buffers for the intermediates a warming encode donates to
/// an encode-session cache (core/incremental_encode): the Eq. 23 z*W3
/// products and the Eq. 20 s_edge entries of all heads, stored in row
/// blocks of `block` pair rows so pair (i, j) lands at row i*block + j
/// regardless of n. A pair's ew3 row holds P*dh floats (head p at column
/// p*dh) and its se row P floats. Capturing changes no output bit: the
/// products land in the cache rows instead of the plan, and the
/// attention and edge epilogues read them from there.
struct GatECapture {
  int block = 0;          // pair-row stride, >= n
  float* ew3 = nullptr;   // pair rows of P*dh floats
  float* se = nullptr;    // pair rows of P floats
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
  float* ew3 = nullptr;          // cached z_l * W3 rows (P*dh), updated
  float* se = nullptr;           // cached s_edge rows (P), updated
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
  /// it increments encode.legacy_layers. Per head, Eq. 20-22 is one
  /// GatAttention node and the Eq. 23 W4/W5 terms are GatherRowsMatMul
  /// nodes (tensor/ops.h); values and gradients are bit-identical to the
  /// per-row op chain this layer used to build, which is kept as the
  /// oracle in tests/gradcheck_test.cc.
  GatEOutput Forward(const Tensor& nodes, const Tensor& edges,
                     const std::vector<bool>& adjacency) const;

  /// No-grad fused path: writes Forward(...)'s out.nodes into the first
  /// n rows of plan->node_out and out.edges into the first n*n rows of
  /// plan->edge_out, bit for bit, with no autograd nodes and no (n^2, d)
  /// per-head temporaries. Requires GradMode disabled; increments
  /// encode.fast_layers. `capture`, when given, also receives the
  /// z*W3 and s_edge intermediates (the session warm-up). The n^2-sized
  /// edge products run as row-blocked simd::DenseRowsMatMul calls, all
  /// heads per pass on hidden layers, and so do each head's node
  /// projections; the Eq. 23/25 edge epilogue is simd::GatEdgeRelu.
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
  /// Packs the head-fused right-hand sides of the edge products into the
  /// plan: [ae_0 | ... | ae_P-1] always, [W3_0 | ... | W3_P-1] on hidden
  /// layers.
  void PackEdgeWeights(EncodePlan* plan) const;
  /// The n^2-sized products of `count` consecutive edge rows z, every
  /// head at once: s_edge into `se` (rows of P) and, when `ew3` is
  /// non-null, z*W3 into `ew3` (rows of P*dh, head p at column p*dh).
  void EdgeProducts(const float* z, int count, float* se, float* ew3,
                    const EncodePlan& plan) const;
  /// Head p's six per-node products (Eq. 20/22/23) into the plan: the
  /// four dh-wide ones row-blocked, the two (1,)-wide ones per row.
  void ProjectNodes(const Head& head, const float* nodes, int n,
                    EncodePlan* plan) const;
  /// Attention row i (Eq. 20-22) of head p into plan->node_out at the
  /// head's slot (concat columns at `col0`, or the last layer's scratch
  /// `sum`). Row i's s_edge entries are the se rows i*stride .. +n.
  void AttentionRow(int i, int p, const float* se, int stride,
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
