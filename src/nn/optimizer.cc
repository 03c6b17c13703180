#include "nn/optimizer.h"

#include <cmath>

namespace m2g::nn {

void Adam::ZeroGrad() {
  for (const Tensor& p : params_) p.ZeroGrad();
}

float Adam::ClipGradNorm(float max_norm) {
  double sq = 0.0;
  for (const Tensor& p : params_) {
    const Matrix& g = p.grad();
    if (!g.SameShape(p.value())) continue;  // never touched
    for (size_t i = 0; i < g.size(); ++i) {
      sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const Tensor& p : params_) {
      Matrix& g = const_cast<Matrix&>(p.grad());
      if (!g.SameShape(p.value())) continue;
      g.ScaleInPlace(scale);
    }
  }
  return norm;
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    const Matrix& g = p.grad();
    if (!g.SameShape(p.value())) continue;
    Matrix& w = p.node()->value;
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      // Decoupled weight decay (AdamW): applied directly to the weight,
      // not through the adaptive moments.
      w[j] -= lr_ * (m_hat / (std::sqrt(v_hat) + eps_) +
                     weight_decay_ * w[j]);
    }
  }
}

}  // namespace m2g::nn
