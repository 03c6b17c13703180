#include "nn/lstm_cell.h"

#include <cmath>

#include "nn/init.h"
#include "tensor/simd.h"

namespace m2g::nn {

LstmCell::LstmCell(int input_size, int hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = AddParameter(
      "w_ih", KaimingUniform(input_size, 4 * hidden_size, hidden_size, rng));
  w_hh_ = AddParameter(
      "w_hh",
      KaimingUniform(hidden_size, 4 * hidden_size, hidden_size, rng));
  Matrix b = KaimingUniform(1, 4 * hidden_size, hidden_size, rng);
  // Forget-gate slice is [hidden, 2*hidden); bias it toward remembering.
  for (int c = hidden_size; c < 2 * hidden_size; ++c) b.At(0, c) += 1.0f;
  bias_ = AddParameter("bias", std::move(b));
}

LstmState LstmCell::Forward(const Tensor& x, const LstmState& state) const {
  M2G_CHECK_EQ(x.cols(), input_size_);
  // Fused gate pre-activation: one node instead of the
  // MatMul/MatMul/Add/AddRowBroadcast chain, bitwise-identical.
  Tensor gates = DualAffine(x, w_ih_, state.h, w_hh_, bias_);
  const int h = hidden_size_;
  Tensor i = Sigmoid(SliceCols(gates, 0, h));
  Tensor f = Sigmoid(SliceCols(gates, h, h));
  Tensor g = Tanh(SliceCols(gates, 2 * h, h));
  Tensor o = Sigmoid(SliceCols(gates, 3 * h, h));
  Tensor c_next = Add(Mul(f, state.c), Mul(i, g));
  Tensor h_next = Mul(o, Tanh(c_next));
  return {h_next, c_next};
}

LstmState LstmCell::InitialState() const {
  return {Tensor::Constant(Matrix(1, hidden_size_)),
          Tensor::Constant(Matrix(1, hidden_size_))};
}

void LstmCell::StepRawBatch(const float* const* x_rows, int batch,
                            const Matrix& h, const Matrix& c, Matrix* h_out,
                            Matrix* c_out) const {
  const int H = hidden_size_;
  const size_t G = static_cast<size_t>(4) * H;
  M2G_CHECK_EQ(h.rows(), batch);
  M2G_CHECK_EQ(h.cols(), H);
  M2G_CHECK(c.SameShape(h));
  M2G_CHECK(h_out->SameShape(h) && c_out->SameShape(c));
  const Matrix& wih = w_ih_.value();
  const Matrix& whh = w_hh_.value();
  const float* bias = bias_.value().data();
  // Gate pre-activation in DualAffineRaw's exact sequence: the x side
  // accumulated into zeroed gates, the h side materialized separately,
  // one elementwise add, then the bias row. Each row is an independent
  // accumulator chain, so batching the hypotheses changes nothing.
  Matrix gates(batch, 4 * H);
  for (int b = 0; b < batch; ++b) {
    AccumulateRowMatMul(x_rows[b], input_size_, wih.data(), 4 * H,
                        gates.data() + b * G);
  }
  Matrix scratch(batch, 4 * H);
  for (int b = 0; b < batch; ++b) {
    AccumulateRowMatMul(h.data() + static_cast<size_t>(b) * H, H,
                        whh.data(), 4 * H, scratch.data() + b * G);
  }
  gates.AddInPlace(scratch);
  // The gate elementwise block (h-side add above plus this bias row) is
  // pure independent-element addition, so it runs through the SIMD tier,
  // as do both tanh sweeps below (TanhRow is the op chain's Tanh forward,
  // bit for bit, on every tier). The sigmoids stay scalar: they call
  // libm exp, which has no owned counterpart yet.
  for (int b = 0; b < batch; ++b) {
    simd::AddInPlace(gates.data() + b * G, bias, G);
  }
  // c' = sigmoid(f) * c + sigmoid(i) * tanh(g); h' = sigmoid(o) * tanh(c'),
  // the exact per-element expressions of the op chain in Forward().
  for (int b = 0; b < batch; ++b) {
    float* g = gates.data() + b * G;
    const float* cp = c.data() + static_cast<size_t>(b) * H;
    float* ho = h_out->data() + static_cast<size_t>(b) * H;
    float* co = c_out->data() + static_cast<size_t>(b) * H;
    float* gg = g + 2 * H;
    float* og = g + 3 * H;
    simd::TanhRow(gg, gg, H);
    for (int j = 0; j < H; ++j) {
      const float iv = 1.0f / (1.0f + std::exp(-g[j]));
      const float fv = 1.0f / (1.0f + std::exp(-g[H + j]));
      og[j] = 1.0f / (1.0f + std::exp(-og[j]));
      co[j] = (fv * cp[j]) + (iv * gg[j]);
    }
    // tanh(c') once c' is complete, then the output gate.
    simd::TanhRow(co, ho, H);
    for (int j = 0; j < H; ++j) ho[j] = og[j] * ho[j];
  }
}

}  // namespace m2g::nn
