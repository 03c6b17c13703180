#ifndef M2G_TESTS_ORACLES_OPS_H_
#define M2G_TESTS_ORACLES_OPS_H_

#include <vector>

#include "tensor/ops.h"

namespace m2g {

// ---------------------------------------------------------------------------
// Unfused ops that the fused ones are checked against (gradcheck_test's
// GatAttention chain and GatLogitsRow reference), and the argmax of the
// reference decoders. Each op builds one autograd node through
// internal::MakeOp, the way every op in tensor/ops.h does.
// ---------------------------------------------------------------------------

/// a + s where s is a (1,1) tensor broadcast to every entry of a
/// (differentiable in both arguments).
Tensor AddScalarTensor(const Tensor& a, const Tensor& s);

/// x > 0 ? x : negative_slope * x, elementwise.
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);

/// Argmax over a row vector restricted to unmasked positions; the first
/// maximum wins ties.
int ArgmaxMaskedRow(const Matrix& row, const std::vector<bool>& mask);

}  // namespace m2g

#endif  // M2G_TESTS_ORACLES_OPS_H_
