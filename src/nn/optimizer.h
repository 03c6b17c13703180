#ifndef M2G_NN_OPTIMIZER_H_
#define M2G_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace m2g::nn {

/// Adam (Kingma & Ba) with bias correction over a fixed parameter list;
/// `weight_decay > 0` gives decoupled AdamW regularization. Gradients
/// accumulate in the parameter leaves across Backward() calls (mini-batch
/// via accumulation); Step() consumes and ZeroGrad() clears them.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step();

  void ZeroGrad();

  /// Scales gradients so that their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace m2g::nn

#endif  // M2G_NN_OPTIMIZER_H_
