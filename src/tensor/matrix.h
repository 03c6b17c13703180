#ifndef M2G_TENSOR_MATRIX_H_
#define M2G_TENSOR_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/pool.h"

namespace m2g {

/// Dense row-major float matrix. This is the only numeric container in the
/// library: vectors are (1 x d) or (n x 1) matrices, scalars are (1 x 1).
/// All shapes in this codebase are tiny (n <= ~80 graph nodes, d <= ~128
/// hidden units), so a simple contiguous buffer with exact O(n^3) kernels
/// outperforms anything fancier and keeps results bit-reproducible.
///
/// The buffer lives in a `Storage` drawn from the thread-local tensor
/// pool (tensor/pool.h): inside an ArenaGuard scope, temporaries recycle
/// without touching malloc. Matrices keep deep-copy value semantics and
/// may outlive any arena scope.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols),
              Storage::Init::kZeroed) {
    M2G_CHECK_GE(rows, 0);
    M2G_CHECK_GE(cols, 0);
  }
  Matrix(int rows, int cols, const std::vector<float>& data);

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  /// Uninitialized allocation for kernels that fully overwrite their
  /// output: skips the zero-fill (and, on a warm pool, any malloc).
  static Matrix Uninit(int rows, int cols);
  static Matrix Ones(int rows, int cols);
  static Matrix Full(int rows, int cols, float value);
  static Matrix Identity(int n);
  /// Row vector (1 x values.size()).
  static Matrix RowVector(const std::vector<float>& values);
  /// Uniform random entries in [lo, hi).
  static Matrix Random(int rows, int cols, float lo, float hi, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Element count as size_t: flat-index arithmetic never runs through
  /// int (rows * cols overflows int silently at ~46k x 46k).
  size_t size() const {
    return static_cast<size_t>(rows_) * static_cast<size_t>(cols_);
  }
  bool empty() const { return data_.empty(); }

  /// Bounds-checked in debug builds only (M2G_DCHECK): At() is the
  /// per-element hot path and the checks compile out under -DNDEBUG.
  float& At(int r, int c) {
    M2G_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_.data()[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    M2G_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_.data()[static_cast<size_t>(r) * cols_ + c];
  }
  /// Unchecked flat access for kernels.
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](size_t i) {
    M2G_DCHECK_LT(i, size());
    return data_.data()[i];
  }
  float operator[](size_t i) const {
    M2G_DCHECK_LT(i, size());
    return data_.data()[i];
  }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this += scale * other (same shape).
  void AddScaledInPlace(const Matrix& other, float scale);
  /// this *= scale.
  void ScaleInPlace(float scale);

  /// Sum of all entries.
  float Sum() const;
  /// Frobenius norm.
  float Norm() const;
  /// Max-abs entry.
  float MaxAbs() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  Matrix(int rows, int cols, Storage::Init init)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), init) {
    M2G_CHECK_GE(rows, 0);
    M2G_CHECK_GE(cols, 0);
  }

  int rows_;
  int cols_;
  Storage data_;
};

/// Activation fused into affine kernels (only what the models use; the
/// other activations stay standalone ops).
enum class Activation { kNone, kRelu };

/// out = a * b. Shapes (n,k) x (k,m) -> (n,m).
Matrix MatMulRaw(const Matrix& a, const Matrix& b);

/// out = a^T.
Matrix TransposeRaw(const Matrix& a);

// ---------------------------------------------------------------------------
// Fused kernels. Each reproduces the exact accumulation order of the op
// composition it replaces (same i-k-j loops, same skip-if-zero), so
// results are bitwise-identical to the unfused path; only intermediate
// buffers disappear. g * w^T has no kernel of its own: the backward
// passes write it as MatMulRaw(g, TransposeRaw(w)), taking w^T from the
// per-Backward transpose cache (internal::TransposedValue).
// ---------------------------------------------------------------------------

/// out = a^T * b without materializing a^T. Shapes (k,n) x (k,m) -> (n,m).
/// Bitwise-identical to MatMulRaw(TransposeRaw(a), b): each row of a^T
/// is gathered into a (1, k) pooled scratch and fed through the
/// canonical row kernel, so the accumulation order is the reference
/// composition's by construction.
Matrix MatMulATB(const Matrix& a, const Matrix& b);

/// out = act(x * w + bias) with bias a (1, m) row broadcast over rows
/// (`bias` may be null for pure projections). Bitwise-identical to the
/// MatMulRaw + row-broadcast-add (+ activation) composition.
Matrix AffineRaw(const Matrix& x, const Matrix& w, const Matrix* bias,
                 Activation act = Activation::kNone);

/// out = x * wx + h * wh + bias: the LSTM gate pre-activation, fused.
/// Bitwise-identical to AddInPlace(MatMulRaw(x,wx), MatMulRaw(h,wh)) plus
/// the row-broadcast bias add.
Matrix DualAffineRaw(const Matrix& x, const Matrix& wx, const Matrix& h,
                     const Matrix& wh, const Matrix& bias);

// ---------------------------------------------------------------------------
// Row-level kernels for the decode fast path. These are the primitives
// behind the matrix-level kernels above (MatMulRaw et al. route every row
// through AccumulateRowMatMul), so callers can mix row- and matrix-level
// calls without changing a single output bit.
// ---------------------------------------------------------------------------

/// out_row += x * b for one row: x is k floats, b is (k, m) row-major,
/// out_row is m floats, accumulated in the canonical ascending-p order
/// with the `x[p] == 0` skip. For m >= 4 the row runs on the
/// runtime-dispatched SIMD dense kernel (tensor/simd.h: AVX2 -> SSE2 ->
/// scalar register-blocked): whole when the first 16 entries carry no
/// exact zeros — typical for dense hidden activations — and otherwise
/// one call per maximal run of nonzero entries. The kernel adds the
/// same terms to the same accumulators in the same order with separate
/// mul + add instructions, so the result is bitwise-identical to the
/// skip loop either way (a zero past the scan cap contributes a
/// bitwise-neutral +/-0.0 term; see the parity argument at the
/// definition).
void AccumulateRowMatMul(const float* x, int k, const float* b, int m,
                         float* out_row);

/// Attention-pointer score for one cached key row:
///   sum_p tanh(keys_row[p] + q[p]) * v[p]
/// with the exact ascending-p order and skip-if-zero of the
/// AddRowBroadcast -> Tanh -> MatMulRaw composition it replaces, but
/// without materializing any (n, d) temporaries. The tanh runs
/// vectorized over the row (simd::TanhRow, the Tanh op's own kernel);
/// the reduction stays scalar.
float PointerScoreRow(const float* keys_row, const float* q, const float* v,
                      int d);

/// PointerScoreRow over every unmasked row of `keys` (n, d); scores[i] is
/// written only where mask[i] is true. The legacy path never reads masked
/// rows' scores either, so skipping them entirely is exact.
void PointerScoresMasked(const Matrix& keys, const float* q, const float* v,
                         const std::vector<bool>& mask, float* scores);

// ---------------------------------------------------------------------------
// Raw kernels for the encode fast path (GAT-e, Eq. 20-26). Like the decode
// kernels above, each replicates the exact float semantics of the op
// composition it replaces, so the fused encoder is bitwise-identical to
// the autograd path (encode_parity_test pins this).
// ---------------------------------------------------------------------------

/// out = a * b written into caller scratch: a is (n, k) row-major, b is
/// (k, m) row-major, out is (n, m) row-major and fully overwritten.
/// Bitwise-identical to MatMulRaw (zeroed accumulators, the same per-row
/// AccumulateRowMatMul order) — only the output allocation moves to the
/// caller, which lets a request-scoped plan pack per-head results at
/// arbitrary strides without per-call Matrix temporaries.
void MatMulInto(const float* a, int n, int k, const float* b, int m,
                float* out);

/// Fused GAT-e attention logits for one node row (Eq. 20 decomposed):
///   logits[j] = LeakyRelu((s_dst[j] + s_edge_row[j]) + s_src_i)
/// with the association order of the Add -> AddScalarTensor -> LeakyRelu
/// chain it replaces (pure float additions, so no contraction hazard).
void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits);

/// MaskedSoftmaxRow's forward on raw buffers (Eq. 21): float max over the
/// unmasked logits, float-stored exponentials, a double denominator
/// accumulated in ascending order over the unmasked entries, then
/// float(exp / denom); masked entries get exact zeros. The mask is row i
/// of a row-major (n, n) adjacency, read at offset `base`.
void MaskedSoftmaxRowRaw(const float* logits, const std::vector<bool>& mask,
                         size_t base, int n, float* alpha);

}  // namespace m2g

#endif  // M2G_TENSOR_MATRIX_H_
