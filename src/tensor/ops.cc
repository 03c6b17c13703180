#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g {
namespace internal {

Tensor MakeOp(std::shared_ptr<TensorNode> out,
              std::vector<std::shared_ptr<TensorNode>> parents,
              std::function<void(TensorNode*)> backward) {
  if (!GradMode::enabled()) return Tensor::FromNode(std::move(out));
  bool any = false;
  for (const auto& p : parents) any = any || p->requires_grad;
  out->parents = std::move(parents);
  out->requires_grad = any;
  if (any) out->backward_fn = std::move(backward);
  return Tensor::FromNode(std::move(out));
}

}  // namespace internal

namespace {

using internal::MakeOp;
using internal::NewNode;
using internal::TensorNode;
using NodePtr = std::shared_ptr<TensorNode>;

/// Elementwise unary op helper: forward maps x->f(x); dfn(x, y) is f'(x)
/// possibly expressed via the output y.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& a, F&& f, DF&& dfn) {
  const Matrix& av = a.value();
  Matrix out = Matrix::Uninit(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) out[i] = f(av[i]);
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, dfn](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] += self->grad[i] * dfn(an->value[i], self->value[i]);
    }
  });
}

/// g * b^T for a backward pass: MatMulRaw(g, TransposeRaw(b)), with b's
/// transpose taken from the per-Backward cache when b is a parameter
/// leaf.
Matrix MatMulGradABT(const Matrix& g, const TensorNode* b) {
  Matrix scratch;
  return MatMulRaw(g, internal::TransposedValue(b, &scratch));
}

/// Shared backward for Affine (and MatMul, with bias == nullptr and no
/// activation): db first, then dx, then dw — the execution order of the
/// unfused AddRowBroadcast -> MatMul chain it replaces. A grad-disabled
/// parent costs nothing: neither product nor transpose is computed for
/// it (the old backward materialized transposes unconditionally).
void AffineBackward(const NodePtr& xn, const NodePtr& wn, TensorNode* bias,
                    Activation act, TensorNode* self) {
  const Matrix* g = &self->grad;
  Matrix masked;
  if (act == Activation::kRelu) {
    // d/dpre relu = 1[pre > 0]; pre > 0 iff out > 0, so the fused node
    // needs no stored pre-activation. The product form (g * 0/1) keeps
    // the exact float semantics of the standalone Relu backward.
    const Matrix& y = self->value;
    masked = Matrix::Uninit(y.rows(), y.cols());
    for (size_t i = 0; i < y.size(); ++i) {
      masked[i] = self->grad[i] * (y[i] > 0.0f ? 1.0f : 0.0f);
    }
    g = &masked;
  }
  if (bias != nullptr && bias->requires_grad) {
    Matrix& bg = bias->EnsureGrad();
    for (int r = 0; r < g->rows(); ++r) {
      for (int c = 0; c < g->cols(); ++c) bg.At(0, c) += g->At(r, c);
    }
  }
  if (xn->requires_grad) {
    xn->EnsureGrad().AddInPlace(MatMulGradABT(*g, wn.get()));
  }
  if (wn->requires_grad) {
    wn->EnsureGrad().AddInPlace(MatMulATB(xn->value, *g));
  }
}

/// GatAttention's backward: the replaced per-row chain, replayed for
/// i = n-1 down to 0 with the chain's own float operations. Each "0 + x"
/// below is a fresh chain node's EnsureGrad() receiving its first
/// contribution; they are kept so signed zeros match bit for bit.
void GatAttentionBackward(const NodePtr& sdn, const NodePtr& sen,
                          const NodePtr& ssn, const NodePtr& mn,
                          const Matrix& logits, const Matrix& alpha,
                          const std::vector<bool>& adjacency, float slope,
                          TensorNode* self) {
  const Matrix& msg = mn->value;
  const int n = msg.rows(), dh = msg.cols();
  const bool scores = sdn->requires_grad || sen->requires_grad ||
                      ssn->requires_grad;
  const bool to_add = sdn->requires_grad || sen->requires_grad;
  Matrix g = Matrix::Uninit(1, dh);        // out_i's grad (ConcatRows)
  Matrix d_alpha = Matrix::Uninit(1, n);   // alpha_i's grad
  Matrix d_pre = Matrix::Uninit(1, n);     // the LeakyRelu input's grad
  Matrix dst_acc(1, n);                    // the (1, n) s_dst row's grad
  // Every parent that requires grad receives a contribution from row
  // n-1 already, so resolving the accumulation targets up front
  // allocates nothing the chain would not have.
  float* msg_grad = mn->requires_grad ? mn->EnsureGrad().data() : nullptr;
  float* src_grad = ssn->requires_grad ? ssn->EnsureGrad().data() : nullptr;
  float* edge_grad = sen->requires_grad ? sen->EnsureGrad().data() : nullptr;
  const int scan = dh < 16 ? dh : 16;
  for (int i = n - 1; i >= 0; --i) {
    const float* gi = self->grad.data() + static_cast<size_t>(i) * dh;
    for (int c = 0; c < dh; ++c) g[c] = 0.0f + gi[c];
    const float* a = alpha.data() + static_cast<size_t>(i) * n;
    if (scores) {
      // d alpha = g * messages^T, each entry a dot product over c in
      // ascending order: MatMulRaw's row kernel, zero-scan included
      // (dense when n >= 4 and the first min(dh, 16) entries of g are
      // nonzero, otherwise skip-if-zero).
      bool dense = n >= 4;
      for (int c = 0; dense && c < scan; ++c) dense = g[c] != 0.0f;
      for (int j = 0; j < n; ++j) {
        const float* mrow = msg.data() + static_cast<size_t>(j) * dh;
        float acc = 0.0f;
        if (dense) {
          for (int c = 0; c < dh; ++c) acc += g[c] * mrow[c];
        } else {
          for (int c = 0; c < dh; ++c) {
            if (g[c] != 0.0f) acc += g[c] * mrow[c];
          }
        }
        d_alpha[j] = 0.0f + acc;
      }
    }
    if (msg_grad != nullptr) {
      // messages += alpha_i^T * g (MatMulATB with k = 1: a zero alpha
      // skips its row product, leaving an exact zero to add).
      for (int j = 0; j < n; ++j) {
        float* row = msg_grad + static_cast<size_t>(j) * dh;
        const float aj = a[j];
        if (aj == 0.0f) {
          for (int c = 0; c < dh; ++c) row[c] += 0.0f;
        } else {
          for (int c = 0; c < dh; ++c) row[c] += 0.0f + aj * g[c];
        }
      }
    }
    if (!scores) continue;
    // MaskedSoftmaxRow: float products summed in double, over the mask.
    const size_t base = static_cast<size_t>(i) * n;
    double dot = 0;
    for (int j = 0; j < n; ++j) {
      if (adjacency[base + j]) dot += d_alpha[j] * a[j];
    }
    // LeakyRelu (its input is > 0 iff its output is, for slope >= 0),
    // fused with the softmax's fresh-grad write.
    const float* y = logits.data() + base;
    for (int j = 0; j < n; ++j) {
      float dl = 0.0f;
      if (adjacency[base + j]) {
        dl += a[j] * (d_alpha[j] - static_cast<float>(dot));
      }
      d_pre[j] = 0.0f + dl * (y[j] > 0.0f ? 1.0f : slope);
    }
    // AddScalarTensor's scalar side: s_src[i] += 0 + Sum(d_pre).
    if (src_grad != nullptr) {
      float sum = 0.0f;
      for (int j = 0; j < n; ++j) sum += d_pre[j];
      src_grad[i] += 0.0f + sum;
    }
    if (!to_add) continue;
    // Add: the s_dst row accumulates across rows; the s_edge slice
    // passes through Transpose and SliceRows (three fresh grads).
    for (int j = 0; j < n; ++j) {
      const float d_add = 0.0f + d_pre[j];
      if (sdn->requires_grad) dst_acc[j] += d_add;
      if (edge_grad != nullptr) edge_grad[base + j] += 0.0f + (0.0f + d_add);
    }
  }
  // The dropped Transpose: s_dst (n, 1) += its (1, n) row's grad.
  if (sdn->requires_grad) {
    float* dst_grad = sdn->EnsureGrad().data();
    for (int j = 0; j < n; ++j) dst_grad[j] += dst_acc[j];
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  NodePtr node = NewNode(MatMulRaw(a.value(), b.value()));
  NodePtr an = a.node(), bn = b.node();
  return MakeOp(node, {an, bn}, [an, bn](TensorNode* self) {
    // Transpose-free: each side is one fused kernel, and a grad-disabled
    // side computes nothing at all.
    if (an->requires_grad) {
      an->EnsureGrad().AddInPlace(MatMulGradABT(self->grad, bn.get()));
    }
    if (bn->requires_grad) {
      bn->EnsureGrad().AddInPlace(MatMulATB(an->value, self->grad));
    }
  });
}

Tensor MatMulWithValue(const Tensor& a, const Tensor& b,
                       const Matrix& value) {
  M2G_CHECK_EQ(a.value().cols(), b.value().rows());
  M2G_CHECK_EQ(value.rows(), a.value().rows());
  M2G_CHECK_EQ(value.cols(), b.value().cols());
  NodePtr node = NewNode(value);
  NodePtr an = a.node(), bn = b.node();
  return MakeOp(node, {an, bn}, [an, bn](TensorNode* self) {
    // Same backward as MatMul: the hoisting only skips forward kernels.
    if (an->requires_grad) {
      an->EnsureGrad().AddInPlace(MatMulGradABT(self->grad, bn.get()));
    }
    if (bn->requires_grad) {
      bn->EnsureGrad().AddInPlace(MatMulATB(an->value, self->grad));
    }
  });
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b,
              Activation act) {
  const Matrix* bias = b.defined() ? &b.value() : nullptr;
  NodePtr node = NewNode(AffineRaw(x.value(), w.value(), bias, act));
  NodePtr xn = x.node(), wn = w.node();
  if (!b.defined()) {
    return MakeOp(node, {xn, wn}, [xn, wn, act](TensorNode* self) {
      AffineBackward(xn, wn, nullptr, act, self);
    });
  }
  NodePtr bn = b.node();
  return MakeOp(node, {xn, wn, bn}, [xn, wn, bn, act](TensorNode* self) {
    AffineBackward(xn, wn, bn.get(), act, self);
  });
}

Tensor DualAffine(const Tensor& x, const Tensor& wx, const Tensor& h,
                  const Tensor& wh, const Tensor& b) {
  if (!GradMode::enabled()) {
    // Inference: one fully fused kernel, no graph nodes at all.
    return Tensor::Constant(DualAffineRaw(x.value(), wx.value(), h.value(),
                                          wh.value(), b.value()));
  }
  // Training builds TWO nodes, not one. In a recurrent chain the h input
  // carries the recursion to earlier timesteps while the x-side product
  // hangs off to the side; in the unfused chain that product was its own
  // node, popped by the backward DFS *before* the recursion, so its
  // dx/dwx accumulations ran in ascending timestep order. Fusing all
  // five inputs into one node would move those accumulations to the
  // gates node's slot (descending order) and change float summation
  // order for any weight shared across >= 3 steps. Keeping the x-side
  // matmul as its own node pins every accumulation to its old slot.
  Tensor xw = MatMul(x, wx);
  const Matrix& bv = b.value();
  M2G_CHECK_EQ(h.value().cols(), wh.value().rows());
  M2G_CHECK_EQ(bv.rows(), 1);
  M2G_CHECK_EQ(bv.cols(), xw.value().cols());
  Matrix out = xw.value();
  out.AddInPlace(MatMulRaw(h.value(), wh.value()));
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) += bv.At(0, c);
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr xwn = xw.node(), hn = h.node(), whn = wh.node(), bn = b.node();
  return MakeOp(node, {xwn, hn, whn, bn},
                [xwn, hn, whn, bn](TensorNode* self) {
                  const Matrix& g = self->grad;
                  // Same per-leaf products and accumulation slots as the
                  // unfused chain (bias add ran first, then the h-side
                  // matmul; the x-side runs later, at the xw node).
                  if (bn->requires_grad) {
                    Matrix& bg = bn->EnsureGrad();
                    for (int r = 0; r < g.rows(); ++r) {
                      for (int c = 0; c < g.cols(); ++c) {
                        bg.At(0, c) += g.At(r, c);
                      }
                    }
                  }
                  if (xwn->requires_grad) {
                    xwn->EnsureGrad().AddInPlace(g);
                  }
                  if (hn->requires_grad) {
                    hn->EnsureGrad().AddInPlace(
                        MatMulGradABT(g, whn.get()));
                  }
                  if (whn->requires_grad) {
                    whn->EnsureGrad().AddInPlace(MatMulATB(hn->value, g));
                  }
                });
}

Tensor GatherRowsMatMul(const Tensor& a, const std::vector<int>& indices,
                        const Tensor& w) {
  const Matrix& av = a.value();
  const Matrix aw = MatMulRaw(av, w.value());
  const int m = aw.cols();
  Matrix out = Matrix::Uninit(static_cast<int>(indices.size()), m);
  for (size_t r = 0; r < indices.size(); ++r) {
    M2G_CHECK(indices[r] >= 0 && indices[r] < av.rows());
    std::copy_n(aw.data() + static_cast<size_t>(indices[r]) * m, m,
                out.data() + r * m);
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), wn = w.node();
  return MakeOp(node, {an, wn}, [an, wn, indices](TensorNode* self) {
    const Matrix& dy = self->grad;
    const int d = an->value.cols(), m = dy.cols();
    const int rows = dy.rows();
    // The MatMul node's w side, then the GatherRows scatter: the order
    // the two replaced nodes ran in.
    if (wn->requires_grad) {
      // MatMulATB(G, dY) with column i of G gathered from a.
      Matrix dw(d, m);
      Matrix col = Matrix::Uninit(1, rows);
      for (int i = 0; i < d; ++i) {
        for (int r = 0; r < rows; ++r) {
          col[static_cast<size_t>(r)] =
              an->value.data()[static_cast<size_t>(indices[r]) * d + i];
        }
        AccumulateRowMatMul(col.data(), rows, dy.data(), m,
                            dw.data() + static_cast<size_t>(i) * m);
      }
      wn->EnsureGrad().AddInPlace(dw);
    }
    if (an->requires_grad) {
      // Row r of dG = dY w^T lands in G's fresh grad (0 + x), which the
      // gather scatters into a's grad in ascending r.
      Matrix scratch;
      const Matrix& wt = internal::TransposedValue(wn.get(), &scratch);
      Matrix& ag = an->EnsureGrad();
      Matrix dg = Matrix::Uninit(1, d);
      for (int r = 0; r < rows; ++r) {
        dg.SetZero();
        AccumulateRowMatMul(dy.data() + static_cast<size_t>(r) * m, m,
                            wt.data(), d, dg.data());
        float* dst = ag.data() + static_cast<size_t>(indices[r]) * d;
        for (int c = 0; c < d; ++c) dst[c] += 0.0f + dg[c];
      }
    }
  });
}

Tensor GatAttention(const Tensor& s_dst, const Tensor& s_edge,
                    const Tensor& s_src, const Tensor& messages,
                    const std::vector<bool>& adjacency, float slope) {
  const Matrix& msg = messages.value();
  const int n = msg.rows(), dh = msg.cols();
  const size_t nn = static_cast<size_t>(n) * n;
  M2G_CHECK_EQ(s_dst.rows(), n);
  M2G_CHECK_EQ(s_dst.cols(), 1);
  M2G_CHECK_EQ(s_src.rows(), n);
  M2G_CHECK_EQ(s_src.cols(), 1);
  M2G_CHECK_EQ(s_edge.value().size(), nn);
  M2G_CHECK_EQ(s_edge.cols(), 1);
  M2G_CHECK_EQ(adjacency.size(), nn);
  M2G_CHECK_GE(slope, 0.0f);
  // Training keeps every row's logits and softmax for backward;
  // inference reuses one row of scratch.
  const bool keep = GradMode::enabled();
  const int kept = keep ? n : 1;
  Matrix logits = Matrix::Uninit(kept, n);
  Matrix alpha = Matrix::Uninit(kept, n);
  Matrix out(n, dh);
  for (int i = 0; i < n; ++i) {
    const size_t at = keep ? static_cast<size_t>(i) * n : 0;
    GatLogitsRow(s_dst.value().data(),
                 s_edge.value().data() + static_cast<size_t>(i) * n,
                 s_src.value()[static_cast<size_t>(i)], slope, n,
                 logits.data() + at);
    MaskedSoftmaxRowRaw(logits.data() + at, adjacency,
                        static_cast<size_t>(i) * n, n, alpha.data() + at);
    AccumulateRowMatMul(alpha.data() + at, n, msg.data(), dh,
                        out.data() + static_cast<size_t>(i) * dh);
  }
  NodePtr node = NewNode(std::move(out));
  if (!keep) return Tensor::FromNode(std::move(node));
  NodePtr sdn = s_dst.node(), sen = s_edge.node(), ssn = s_src.node(),
          mn = messages.node();
  return MakeOp(node, {sdn, sen, ssn, mn},
                [sdn, sen, ssn, mn, logits = std::move(logits),
                 alpha = std::move(alpha), adjacency,
                 slope](TensorNode* self) {
                  GatAttentionBackward(sdn, sen, ssn, mn, logits, alpha,
                                       adjacency, slope, self);
                });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  M2G_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.AddInPlace(b.value());
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), bn = b.node();
  return MakeOp(node, {an, bn}, [an, bn](TensorNode* self) {
    if (an->requires_grad) an->EnsureGrad().AddInPlace(self->grad);
    if (bn->requires_grad) bn->EnsureGrad().AddInPlace(self->grad);
  });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  M2G_CHECK_EQ(rv.rows(), 1);
  M2G_CHECK_EQ(av.cols(), rv.cols());
  Matrix out = av;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) += rv.At(0, c);
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), rn = row.node();
  return MakeOp(node, {an, rn}, [an, rn](TensorNode* self) {
    if (an->requires_grad) an->EnsureGrad().AddInPlace(self->grad);
    if (rn->requires_grad) {
      Matrix& g = rn->EnsureGrad();
      for (int r = 0; r < self->grad.rows(); ++r) {
        for (int c = 0; c < self->grad.cols(); ++c) {
          g.At(0, c) += self->grad.At(r, c);
        }
      }
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  M2G_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.AddScaledInPlace(b.value(), -1.0f);
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), bn = b.node();
  return MakeOp(node, {an, bn}, [an, bn](TensorNode* self) {
    if (an->requires_grad) an->EnsureGrad().AddInPlace(self->grad);
    if (bn->requires_grad) {
      bn->EnsureGrad().AddScaledInPlace(self->grad, -1.0f);
    }
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  M2G_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b.value()[i];
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), bn = b.node();
  return MakeOp(node, {an, bn}, [an, bn](TensorNode* self) {
    if (an->requires_grad) {
      Matrix& g = an->EnsureGrad();
      for (size_t i = 0; i < g.size(); ++i) {
        g[i] += self->grad[i] * bn->value[i];
      }
    }
    if (bn->requires_grad) {
      Matrix& g = bn->EnsureGrad();
      for (size_t i = 0; i < g.size(); ++i) {
        g[i] += self->grad[i] * an->value[i];
      }
    }
  });
}

Tensor Scale(const Tensor& a, float s) {
  Matrix out = a.value();
  out.ScaleInPlace(s);
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, s](TensorNode* self) {
    if (an->requires_grad) an->EnsureGrad().AddScaledInPlace(self->grad, s);
  });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Neg(const Tensor& a) { return Scale(a, -1.0f); }

Tensor BroadcastRows(const Tensor& row, int n) {
  M2G_CHECK_EQ(row.rows(), 1);
  return GatherRows(row, std::vector<int>(static_cast<size_t>(n), 0));
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  // Forward on the dispatched tanh kernel (bitwise fdlibm tanhf on every
  // tier); backward is the generic closure's g += gy * (1 - y * y), one
  // element at a time.
  const Matrix& av = a.value();
  Matrix out = Matrix::Uninit(av.rows(), av.cols());
  simd::TanhRow(av.data(), out.data(), static_cast<int>(av.size()));
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    const float* y = self->value.data();
    const float* gy = self->grad.data();
    for (size_t i = 0, n = g.size(); i < n; ++i) {
      g[i] += gy[i] * (1.0f - y[i] * y[i]);
    }
  });
}

Tensor Relu(const Tensor& a) {
  // The dispatched ReLU sweep writes x > 0 ? x : 0.0f per element, the
  // generic closure's arithmetic; backward multiplies by the same 1/0
  // mask and adds, one element at a time.
  Matrix out = a.value();
  simd::ReluInPlace(out.data(), out.size());
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    const float* x = an->value.data();
    const float* gy = self->grad.data();
    for (size_t i = 0, n = g.size(); i < n; ++i) {
      g[i] += gy[i] * (x[i] > 0 ? 1.0f : 0.0f);
    }
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  M2G_CHECK_EQ(av.rows(), bv.rows());
  Matrix out = Matrix::Uninit(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < av.cols(); ++c) out.At(r, c) = av.At(r, c);
    for (int c = 0; c < bv.cols(); ++c) {
      out.At(r, av.cols() + c) = bv.At(r, c);
    }
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node(), bn = b.node();
  const int ac = av.cols(), bc = bv.cols();
  return MakeOp(node, {an, bn}, [an, bn, ac, bc](TensorNode* self) {
    if (an->requires_grad) {
      Matrix& g = an->EnsureGrad();
      for (int r = 0; r < g.rows(); ++r) {
        for (int c = 0; c < ac; ++c) g.At(r, c) += self->grad.At(r, c);
      }
    }
    if (bn->requires_grad) {
      Matrix& g = bn->EnsureGrad();
      for (int r = 0; r < g.rows(); ++r) {
        for (int c = 0; c < bc; ++c) {
          g.At(r, c) += self->grad.At(r, ac + c);
        }
      }
    }
  });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  M2G_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int rows = 0;
  for (const Tensor& p : parts) {
    M2G_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  Matrix out = Matrix::Uninit(rows, cols);
  int at = 0;
  for (const Tensor& p : parts) {
    const Matrix& pv = p.value();
    for (int r = 0; r < pv.rows(); ++r) {
      for (int c = 0; c < cols; ++c) out.At(at + r, c) = pv.At(r, c);
    }
    at += pv.rows();
  }
  NodePtr node = NewNode(std::move(out));
  std::vector<NodePtr> parents;
  parents.reserve(parts.size());
  for (const Tensor& p : parts) parents.push_back(p.node());
  std::vector<NodePtr> captured = parents;
  return MakeOp(node, std::move(parents), [captured](TensorNode* self) {
    int at = 0;
    for (const NodePtr& p : captured) {
      if (p->requires_grad) {
        Matrix& g = p->EnsureGrad();
        for (int r = 0; r < g.rows(); ++r) {
          for (int c = 0; c < g.cols(); ++c) {
            g.At(r, c) += self->grad.At(at + r, c);
          }
        }
      }
      at += p->value.rows();
    }
  });
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  const Matrix& av = a.value();
  M2G_CHECK(start >= 0 && len >= 0 && start + len <= av.cols());
  Matrix out = Matrix::Uninit(av.rows(), len);
  for (int r = 0; r < av.rows(); ++r) {
    for (int c = 0; c < len; ++c) out.At(r, c) = av.At(r, start + c);
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, start, len](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < len; ++c) {
        g.At(r, start + c) += self->grad.At(r, c);
      }
    }
  });
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  const Matrix& av = a.value();
  M2G_CHECK(start >= 0 && len >= 0 && start + len <= av.rows());
  Matrix out = Matrix::Uninit(len, av.cols());
  for (int r = 0; r < len; ++r) {
    for (int c = 0; c < av.cols(); ++c) out.At(r, c) = av.At(start + r, c);
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, start, len](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    for (int r = 0; r < len; ++r) {
      for (int c = 0; c < g.cols(); ++c) {
        g.At(start + r, c) += self->grad.At(r, c);
      }
    }
  });
}

Tensor Row(const Tensor& a, int i) { return SliceRows(a, i, 1); }

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  const Matrix& av = a.value();
  Matrix out = Matrix::Uninit(static_cast<int>(indices.size()), av.cols());
  for (size_t r = 0; r < indices.size(); ++r) {
    M2G_CHECK(indices[r] >= 0 && indices[r] < av.rows());
    for (int c = 0; c < av.cols(); ++c) {
      out.At(static_cast<int>(r), c) = av.At(indices[r], c);
    }
  }
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an, indices](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    for (size_t r = 0; r < indices.size(); ++r) {
      for (int c = 0; c < g.cols(); ++c) {
        g.At(indices[r], c) += self->grad.At(static_cast<int>(r), c);
      }
    }
  });
}

Tensor Sum(const Tensor& a) {
  Matrix out = Matrix::Uninit(1, 1);
  out[0] = a.value().Sum();
  NodePtr node = NewNode(std::move(out));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an](TensorNode* self) {
    if (!an->requires_grad) return;
    Matrix& g = an->EnsureGrad();
    const float d = self->grad[0];
    for (size_t i = 0; i < g.size(); ++i) g[i] += d;
  });
}

Tensor Mean(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return Scale(Sum(a), inv);
}

Tensor Transpose(const Tensor& a) {
  NodePtr node = NewNode(TransposeRaw(a.value()));
  NodePtr an = a.node();
  return MakeOp(node, {an}, [an](TensorNode* self) {
    if (!an->requires_grad) return;
    an->EnsureGrad().AddInPlace(TransposeRaw(self->grad));
  });
}

Tensor MaskedSoftmaxRow(const Tensor& logits, const std::vector<bool>& mask) {
  const Matrix& lv = logits.value();
  M2G_CHECK_EQ(lv.rows(), 1);
  M2G_CHECK_EQ(static_cast<size_t>(lv.cols()), mask.size());
  Matrix out = Matrix::Uninit(1, lv.cols());
  MaskedSoftmaxRowRaw(lv.data(), mask, 0, lv.cols(), out.data());
  NodePtr node = NewNode(std::move(out));
  NodePtr ln = logits.node();
  return MakeOp(node, {ln}, [ln, mask](TensorNode* self) {
    if (!ln->requires_grad) return;
    // dL/dx_i = y_i * (g_i - sum_j g_j y_j), restricted to the mask.
    Matrix& g = ln->EnsureGrad();
    double dot = 0;
    for (int i = 0; i < g.cols(); ++i) {
      if (mask[i]) dot += self->grad[i] * self->value[i];
    }
    for (int i = 0; i < g.cols(); ++i) {
      if (mask[i]) {
        g[i] += self->value[i] *
                (self->grad[i] - static_cast<float>(dot));
      }
    }
  });
}

Tensor MaskedCrossEntropy(const Tensor& logits, int target,
                          const std::vector<bool>& mask) {
  const Matrix& lv = logits.value();
  M2G_CHECK_EQ(lv.rows(), 1);
  M2G_CHECK_EQ(static_cast<size_t>(lv.cols()), mask.size());
  M2G_CHECK(target >= 0 && target < lv.cols());
  M2G_CHECK_MSG(mask[target], "MaskedCrossEntropy: target is masked out");
  float max_v = -std::numeric_limits<float>::infinity();
  for (int i = 0; i < lv.cols(); ++i) {
    if (mask[i]) max_v = std::max(max_v, lv[i]);
  }
  double denom = 0;
  for (int i = 0; i < lv.cols(); ++i) {
    if (mask[i]) denom += std::exp(lv[i] - max_v);
  }
  const float log_z = max_v + static_cast<float>(std::log(denom));
  Matrix out = Matrix::Uninit(1, 1);
  out[0] = log_z - lv[target];
  NodePtr node = NewNode(std::move(out));
  NodePtr ln = logits.node();
  return MakeOp(node, {ln}, [ln, target, mask, max_v,
                             denom](TensorNode* self) {
    if (!ln->requires_grad) return;
    // dL/dx_i = softmax_i - [i == target], over the mask.
    Matrix& g = ln->EnsureGrad();
    const float d = self->grad[0];
    for (int i = 0; i < g.cols(); ++i) {
      if (!mask[i]) continue;
      const float p =
          static_cast<float>(std::exp(ln->value[i] - max_v) / denom);
      g[i] += d * (p - (i == target ? 1.0f : 0.0f));
    }
  });
}

Tensor L1Loss(const Tensor& pred, float target) {
  M2G_CHECK_EQ(pred.value().size(), 1);
  return Abs(AddScalar(pred, -target));
}

}  // namespace m2g
