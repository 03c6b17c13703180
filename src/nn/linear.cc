#include "nn/linear.h"

#include "nn/init.h"

namespace m2g::nn {

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = AddParameter(
      "weight", KaimingUniform(in_features, out_features, in_features, rng));
  if (bias) {
    bias_ = AddParameter(
        "bias", KaimingUniform(1, out_features, in_features, rng));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  return Affine(x, weight_, bias_);
}

Tensor Linear::Forward(const Tensor& x, Activation act) const {
  return Affine(x, weight_, bias_, act);
}

Matrix Linear::ForwardRaw(const Matrix& x) const {
  return AffineRaw(x, weight_.value(),
                   bias_.defined() ? &bias_.value() : nullptr);
}

}  // namespace m2g::nn
