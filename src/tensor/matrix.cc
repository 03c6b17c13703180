#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/simd.h"

namespace m2g {
namespace {

/// out += a * b accumulated in the canonical i-k-j order (streams through
/// b and out row-wise, skips zero entries of a). Every matmul-shaped
/// kernel below goes through AccumulateRowMatMul row by row so their
/// accumulation orders are identical by construction.
void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  const int n = a.rows(), k = a.cols(), m = b.cols();
  for (int i = 0; i < n; ++i) {
    AccumulateRowMatMul(a.data() + static_cast<size_t>(i) * k, k, b.data(),
                        m, out->data() + static_cast<size_t>(i) * m);
  }
}

void AddRowBias(const Matrix& bias, Matrix* out) {
  const float* brow = bias.data();
  const size_t cols = static_cast<size_t>(out->cols());
  for (int r = 0; r < out->rows(); ++r) {
    simd::AddInPlace(out->data() + static_cast<size_t>(r) * cols, brow,
                     cols);
  }
}

}  // namespace

Matrix::Matrix(int rows, int cols, const std::vector<float>& data)
    : Matrix(rows, cols, Storage::Init::kUninitialized) {
  M2G_CHECK_EQ(size(), data.size());
  if (!data.empty()) {
    std::memcpy(data_.data(), data.data(), data.size() * sizeof(float));
  }
}

Matrix Matrix::Uninit(int rows, int cols) {
  return Matrix(rows, cols, Storage::Init::kUninitialized);
}

Matrix Matrix::Ones(int rows, int cols) { return Full(rows, cols, 1.0f); }

Matrix Matrix::Full(int rows, int cols, float value) {
  Matrix m = Uninit(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.At(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  return Matrix(1, static_cast<int>(values.size()), values);
}

Matrix Matrix::Random(int rows, int cols, float lo, float hi, Rng* rng) {
  Matrix m = Uninit(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.data(), data_.data() + size(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  M2G_CHECK(SameShape(other));
  simd::AddInPlace(data_.data(), other.data_.data(), size());
}

void Matrix::AddScaledInPlace(const Matrix& other, float scale) {
  M2G_CHECK(SameShape(other));
  float* a = data_.data();
  const float* b = other.data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] += scale * b[i];
}

void Matrix::ScaleInPlace(float scale) {
  float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] *= scale;
}

float Matrix::Sum() const {
  float s = 0.0f;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) s += a[i];
  return s;
}

float Matrix::Norm() const {
  double s = 0.0;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    s += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(s));
}

float Matrix::MaxAbs() const {
  float m = 0.0f;
  const float* a = data_.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    m = std::max(m, std::fabs(a[i]));
  }
  return m;
}

Matrix MatMulRaw(const Matrix& a, const Matrix& b) {
  M2G_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  MatMulAccumulate(a, b, &out);
  return out;
}

Matrix TransposeRaw(const Matrix& a) {
  const int rows = a.rows(), cols = a.cols();
  Matrix out = Matrix::Uninit(cols, rows);
  if (rows == 1 || cols == 1) {
    // A row or column vector has the same flat layout as its transpose.
    if (!a.empty()) {
      std::memcpy(out.data(), a.data(), a.size() * sizeof(float));
    }
    return out;
  }
  const float* src = a.data();
  float* dst = out.data();
  for (int r = 0; r < rows; ++r) {
    const float* row = src + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      dst[static_cast<size_t>(c) * rows + r] = row[c];
    }
  }
  return out;
}

Matrix MatMulATB(const Matrix& a, const Matrix& b) {
  M2G_CHECK_EQ(a.rows(), b.rows());
  const int n = a.cols(), k = a.rows(), m = b.cols();
  Matrix out(n, m);
  // Gather column i of `a` into a contiguous pooled row, then run the
  // canonical row kernel — exactly MatMulRaw(TransposeRaw(a), b) row by
  // row, so the accumulation order (and the dense/sparse path choice)
  // is the reference composition's, bit for bit. The old fused variant
  // read a(p, i) strided inside the O(k*m) inner loop, which measured
  // ~2x slower than transpose-then-multiply once the dense row kernel
  // got register blocking; the O(k) gather per row is noise against the
  // O(k*m) product and keeps the traffic sequential.
  Matrix acol = Matrix::Uninit(1, k);
  float* xrow = acol.data();
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < k; ++p) {
      xrow[p] = a.data()[static_cast<size_t>(p) * n + i];
    }
    AccumulateRowMatMul(xrow, k, b.data(), m,
                        out.data() + static_cast<size_t>(i) * m);
  }
  return out;
}

Matrix AffineRaw(const Matrix& x, const Matrix& w, const Matrix* bias,
                 Activation act) {
  M2G_CHECK_EQ(x.cols(), w.rows());
  if (bias != nullptr) {
    M2G_CHECK_EQ(bias->rows(), 1);
    M2G_CHECK_EQ(bias->cols(), w.cols());
  }
  Matrix out(x.rows(), w.cols());
  MatMulAccumulate(x, w, &out);
  if (bias != nullptr) AddRowBias(*bias, &out);
  if (act == Activation::kRelu) {
    simd::ReluInPlace(out.data(), out.size());
  }
  return out;
}

void AccumulateRowMatMul(const float* x, int k, const float* b, int m,
                         float* out_row) {
  // Zero-scan picks the path: rows carrying exact zeros (one-hot
  // features, ReLU outputs, the all-zero initial LSTM state) skip them
  // run by run, dense activations go to the dense kernel whole. The
  // scan is capped at the first kZeroScanCap entries: real rows are
  // either dense everywhere (hidden activations) or zero-sparse from the
  // start (one-hot blocks), so the prefix decides, and the scan cost
  // stays O(1) instead of O(k) in front of every O(k*m) row product.
  //
  // Parity argument for the cap: a zero hiding at p >= kZeroScanCap
  // reaches the dense kernel, which adds x[p] * b[p*m + j] = +/-0.0
  // instead of skipping the term. Under round-to-nearest, adding +/-0.0
  // leaves every accumulator bit-unchanged unless the accumulator holds
  // -0.0 (only (-0) + (-0) produces -0, so an accumulator that starts at
  // +0.0 — as every caller's does — or at any nonzero value can never
  // reach -0.0), and 0 * b is +/-0.0 for every finite b (weights are
  // finite; a nonfinite b poisons the product on either path).
  // matrix_test pins dense-with-late-zero against the skip reference
  // byte for byte.
  if (m < 4) {
    // Too narrow for a vector lane: the plain skip-if-zero loop.
    for (int p = 0; p < k; ++p) {
      const float av = x[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(p) * m;
      for (int j = 0; j < m; ++j) out_row[j] += av * brow[j];
    }
    return;
  }
  constexpr int kZeroScanCap = 16;
  const int scan = k < kZeroScanCap ? k : kZeroScanCap;
  bool dense = true;
  for (int p = 0; p < scan; ++p) {
    if (x[p] == 0.0f) {
      dense = false;
      break;
    }
  }
  // Both paths run the runtime-dispatched SIMD tier (AVX2 -> SSE2 ->
  // scalar register-blocked). Every tier adds the same terms to the
  // same accumulators in the same ascending-p order with separate
  // mul + add instructions — see tensor/simd.h for the full contract.
  if (dense) {
    simd::DenseRowMatMul(x, k, b, m, out_row);
    return;
  }
  // Skip-if-zero as runs: each maximal run of nonzero x[p] goes to the
  // dense kernel, which adds exactly the run's terms, per output element
  // in ascending-p order, one add at a time — the skip loop's arithmetic,
  // vectorized across j.
  int p = 0;
  while (p < k) {
    while (p < k && x[p] == 0.0f) ++p;
    const int start = p;
    while (p < k && x[p] != 0.0f) ++p;
    if (p > start) {
      simd::DenseRowMatMul(x + start, p - start,
                           b + static_cast<size_t>(start) * m, m, out_row);
    }
  }
}

float PointerScoreRow(const float* keys_row, const float* q, const float* v,
                      int d) {
  // Mirrors MatMulRaw(tanh(keys + q), v) for one row. The element-wise
  // part, keys + q and its tanh, runs a block at a time through the
  // dispatched tanh kernel (the Tanh op's forward, bit for bit); the
  // (d, 1) product stays a scalar sum in ascending p that skips terms
  // whose tanh is exactly zero, matching the matrix kernel's zero-skip.
  constexpr int kBlock = 64;
  float t[kBlock];
  float acc = 0.0f;
  for (int p0 = 0; p0 < d; p0 += kBlock) {
    const int len = std::min(kBlock, d - p0);
    for (int p = 0; p < len; ++p) t[p] = keys_row[p0 + p] + q[p0 + p];
    simd::TanhRow(t, t, len);
    for (int p = 0; p < len; ++p) {
      if (t[p] == 0.0f) continue;
      acc += t[p] * v[p0 + p];
    }
  }
  return acc;
}

void PointerScoresMasked(const Matrix& keys, const float* q, const float* v,
                         const std::vector<bool>& mask, float* scores) {
  const int n = keys.rows(), d = keys.cols();
  M2G_CHECK_EQ(static_cast<size_t>(n), mask.size());
  for (int i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    scores[i] =
        PointerScoreRow(keys.data() + static_cast<size_t>(i) * d, q, v, d);
  }
}

void MatMulInto(const float* a, int n, int k, const float* b, int m,
                float* out) {
  std::fill(out, out + static_cast<size_t>(n) * m, 0.0f);
  for (int i = 0; i < n; ++i) {
    AccumulateRowMatMul(a + static_cast<size_t>(i) * k, k, b, m,
                        out + static_cast<size_t>(i) * m);
  }
}

void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits) {
  // (s_dst[j] + s_e[ij]) first, then + s_src[i]: the Add node ran
  // before the AddScalarTensor node on the legacy path. Each output
  // element is independent, so the SIMD tier vectorizes across j with
  // the same add/add/mul/select sequence per lane.
  simd::GatLogitsRow(s_dst, s_edge_row, s_src_i, slope, n, logits);
}

void MaskedSoftmaxRowRaw(const float* logits, const std::vector<bool>& mask,
                         size_t base, int n, float* alpha) {
  float max_v = -std::numeric_limits<float>::infinity();
  bool any = false;
  for (int j = 0; j < n; ++j) {
    if (mask[base + j]) {
      any = true;
      max_v = std::max(max_v, logits[j]);
    }
  }
  M2G_CHECK_MSG(any, "MaskedSoftmaxRowRaw: all positions masked");
  double denom = 0;
  for (int j = 0; j < n; ++j) {
    if (mask[base + j]) {
      alpha[j] = std::exp(logits[j] - max_v);
      denom += alpha[j];
    }
  }
  for (int j = 0; j < n; ++j) {
    alpha[j] = mask[base + j] ? static_cast<float>(alpha[j] / denom) : 0.0f;
  }
}

Matrix DualAffineRaw(const Matrix& x, const Matrix& wx, const Matrix& h,
                     const Matrix& wh, const Matrix& bias) {
  M2G_CHECK_EQ(x.cols(), wx.rows());
  M2G_CHECK_EQ(h.cols(), wh.rows());
  M2G_CHECK_EQ(wx.cols(), wh.cols());
  M2G_CHECK_EQ(bias.rows(), 1);
  M2G_CHECK_EQ(bias.cols(), wx.cols());
  Matrix out(x.rows(), wx.cols());
  MatMulAccumulate(x, wx, &out);
  // The second product must be materialized before the elementwise add:
  // folding it into `out` directly would interleave the two summations
  // and change float rounding. The scratch comes from the pool, so on a
  // warm arena this costs no malloc.
  Matrix scratch(h.rows(), wh.cols());
  MatMulAccumulate(h, wh, &scratch);
  out.AddInPlace(scratch);
  AddRowBias(bias, &out);
  return out;
}

}  // namespace m2g
