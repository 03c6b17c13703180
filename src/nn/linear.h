#ifndef M2G_NN_LINEAR_H_
#define M2G_NN_LINEAR_H_

#include "nn/module.h"
#include "tensor/ops.h"

namespace m2g::nn {

/// Affine map y = x W + b with x of shape (n, in), y of shape (n, out).
/// Forward runs through the fused Affine op: one graph node, no
/// transpose copies in the backward.
class Linear : public Module {
 public:
  /// `bias` can be disabled for pure projections (e.g. attention scores).
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;
  /// Fused activation variant (y = act(x W + b)) — saves the standalone
  /// activation node; bitwise-identical to applying it separately.
  Tensor Forward(const Tensor& x, Activation act) const;
  /// Forward's value with no autograd node: the same AffineRaw kernel
  /// the Affine op runs, so bitwise-identical to Forward(x).value().
  Matrix ForwardRaw(const Matrix& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (1, out), undefined when bias == false
};

}  // namespace m2g::nn

#endif  // M2G_NN_LINEAR_H_
