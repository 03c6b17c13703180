#ifndef M2G_TENSOR_OPS_H_
#define M2G_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace m2g {

// ---------------------------------------------------------------------------
// Differentiable operations. Every function builds one autograd node whose
// backward closure accumulates into parents that require gradients. All
// tensors are 2-D; scalars are (1,1).
// ---------------------------------------------------------------------------

/// (n,k) x (k,m) -> (n,m).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// MatMul(a, b) with the forward value supplied by the caller instead of
/// recomputed. The decode/training fast path hoists the step-invariant
/// `MatMul(nodes, W6)` out of the decode loop by running the kernel once
/// (MatMulRaw) and rebuilding the per-step graph node around the shared
/// value. The node, parents and backward closure are exactly MatMul's, so
/// gradient accumulation slots — and therefore float summation order —
/// are unchanged. `value` must equal MatMulRaw(a.value(), b.value());
/// shapes are checked, contents are the caller's contract.
Tensor MatMulWithValue(const Tensor& a, const Tensor& b,
                       const Matrix& value);

/// Fused act(x * w + b): one node replacing the MatMul + AddRowBroadcast
/// (+ Relu) chain — bitwise-identical values and gradients and no
/// intermediate graph nodes; the backward takes w^T from the
/// per-Backward transpose cache (internal::TransposedValue). `b` may be
/// undefined (pure projection).
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b,
              Activation act = Activation::kNone);

/// Fused x*wx + h*wh + b: the LSTM gate pre-activation as one node,
/// replacing AddRowBroadcast(Add(MatMul(x,wx), MatMul(h,wh)), b) with
/// bitwise-identical values and gradients.
Tensor DualAffine(const Tensor& x, const Tensor& wx, const Tensor& h,
                  const Tensor& wh, const Tensor& b);

/// GatherRows(a, indices) * w as one node: row r is row indices[r] of
/// a * w. The forward computes a * w once and gathers its rows, which is
/// exact because every gathered row product accumulates from zero. The
/// backward keeps the unfused pair's arithmetic: dW = G^T dY with G's
/// columns read from `a` through `indices`, then dG = dY w^T row by row,
/// scattered into a's grad in ascending r. The pair's two nodes were
/// adjacent in the backward order, so merging them moves no
/// accumulation (the GAT-e edge update's W4/W5 terms, Eq. 23).
Tensor GatherRowsMatMul(const Tensor& a, const std::vector<int>& indices,
                        const Tensor& w);

/// GAT-e attention for one head over all n node rows (Eq. 20-22) as one
/// node. With s_dst, s_src (n, 1), s_edge (n*n, 1) and messages (n, dh):
///   out[i] = softmax_{j : adjacency[i*n+j]}(
///                LeakyRelu((s_dst[j] + s_edge[i*n+j]) + s_src[i]))
///            * messages
/// which is the per-row chain Transpose -> SliceRows -> Add ->
/// AddScalarTensor(Row) -> LeakyRelu -> MaskedSoftmaxRow -> MatMul,
/// stacked by ConcatRows (gradcheck_test builds it from the test-only
/// ops in tests/oracles/ops.h), with bit-identical values and gradients:
///   * the parents are listed in the order the chain's backward DFS first
///     reached them (s_dst, s_edge, s_src, messages), so every node
///     outside the block keeps its topological slot;
///   * the backward replays the chain row by row from i = n-1 down to 0
///     (the chain's reverse-topological order) with its exact float
///     operations, keeping every gradient accumulation local to the node.
/// Training saves the logits and softmax rows (n x n each) for backward;
/// under NoGradGuard nothing is saved. `slope` must be >= 0: the backward
/// reads the LeakyRelu's sign from its output.
Tensor GatAttention(const Tensor& s_dst, const Tensor& s_edge,
                    const Tensor& s_src, const Tensor& messages,
                    const std::vector<bool>& adjacency, float slope);

/// Elementwise a + b, same shape.
Tensor Add(const Tensor& a, const Tensor& b);

/// (n,d) + (1,d) broadcast over rows (bias add).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);

/// Elementwise a - b, same shape.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (Hadamard), same shape.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s for a compile-time-known scalar s.
Tensor Scale(const Tensor& a, float s);

/// a + s elementwise.
Tensor AddScalar(const Tensor& a, float s);

/// -a.
Tensor Neg(const Tensor& a);

/// Replicates a (1,d) row n times -> (n,d).
Tensor BroadcastRows(const Tensor& row, int n);

/// Elementwise exp / abs.
Tensor Exp(const Tensor& a);
Tensor Abs(const Tensor& a);

/// Activations.
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);

/// Horizontal concat: (n,d1) || (n,d2) -> (n, d1+d2).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Vertical stack of same-width tensors -> (sum rows, d).
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Column slice [start, start+len).
Tensor SliceCols(const Tensor& a, int start, int len);

/// Row slice [start, start+len).
Tensor SliceRows(const Tensor& a, int start, int len);

/// Single row i as (1,d).
Tensor Row(const Tensor& a, int i);

/// Rows picked by index (duplicates allowed); grad scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

/// Sum of all entries -> (1,1).
Tensor Sum(const Tensor& a);

/// Mean of all entries -> (1,1).
Tensor Mean(const Tensor& a);

/// a^T.
Tensor Transpose(const Tensor& a);

/// Softmax over a row vector (1,n) restricted to positions where
/// mask[i] == true; masked-out positions get probability 0. At least one
/// position must be unmasked. The forward is MaskedSoftmaxRowRaw.
Tensor MaskedSoftmaxRow(const Tensor& logits, const std::vector<bool>& mask);

/// Numerically stable -log softmax(logits)[target] with the softmax taken
/// over unmasked positions only. `mask[target]` must be true. Returns (1,1).
Tensor MaskedCrossEntropy(const Tensor& logits, int target,
                          const std::vector<bool>& mask);

/// |pred - target| for scalar pred -> (1,1). Subgradient 0 at equality.
Tensor L1Loss(const Tensor& pred, float target);

}  // namespace m2g

#endif  // M2G_TENSOR_OPS_H_
