#include "tests/oracles/ops.h"

#include <limits>

namespace m2g {

using internal::MakeOp;
using internal::NewNode;
using internal::TensorNode;
using NodePtr = std::shared_ptr<TensorNode>;

Tensor AddScalarTensor(const Tensor& a, const Tensor& s) {
  M2G_CHECK_EQ(s.value().size(), 1u);
  Matrix out = a.value();
  const float sv = s.value()[0];
  for (size_t i = 0; i < out.size(); ++i) out[i] += sv;
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), sn = s.node();
  return MakeOp(node, {an, sn}, [an, sn](TensorNode* self) {
    if (an->requires_grad) an->EnsureGrad().AddInPlace(self->grad);
    if (sn->requires_grad) sn->EnsureGrad()[0] += self->grad.Sum();
  });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  const Matrix& av = a.value();
  Matrix out = Matrix::Uninit(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    out[i] = av[i] > 0 ? av[i] : negative_slope * av[i];
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, negative_slope](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] += self->grad[i] * (an->value[i] > 0 ? 1.0f : negative_slope);
    }
  });
}

int ArgmaxMaskedRow(const Matrix& row, const std::vector<bool>& mask) {
  M2G_CHECK_EQ(row.rows(), 1);
  M2G_CHECK_EQ(static_cast<size_t>(row.cols()), mask.size());
  int best = -1;
  float best_v = -std::numeric_limits<float>::infinity();
  for (int i = 0; i < row.cols(); ++i) {
    if (mask[i] && row[i] > best_v) {
      best_v = row[i];
      best = i;
    }
  }
  M2G_CHECK_MSG(best >= 0, "ArgmaxMaskedRow: all positions masked");
  return best;
}

}  // namespace m2g
