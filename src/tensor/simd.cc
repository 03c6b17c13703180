#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define M2G_SIMD_X86 1
#include <immintrin.h>
#endif

// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt) and none of the target attributes below include
// "fma", so the compiler can neither contract the separate mul/add
// statements of the scalar tier nor emit vfmadd for the intrinsic
// tiers: every tier performs the same two-rounding mul-then-add per
// output element, which is what makes them bit-for-bit interchangeable.

namespace m2g::simd {
namespace {

struct KernelTable {
  Tier tier;
  void (*dense_row)(const float*, int, const float*, int, float*);
  void (*dense_rows)(const float*, int, int, int, const float*, int, float*,
                     int);
  void (*gat_logits)(const float*, const float*, float, float, int, float*);
  void (*add)(float*, const float*, size_t);
  void (*relu)(float*, size_t);
  void (*tanh)(const float*, float*, int);
};

// --- Scalar tier: the pre-SIMD kernels, verbatim ---------------------------
// (These are the bitwise reference implementations; matrix.cc carried
// them before the tier split. simd_parity_test compares every other
// tier against this one byte for byte.)

/// Register-blocked dense row product: four b-rows per pass over
/// out_row, one load/store of each accumulator instead of four. The
/// per-column additions stay separate statements in ascending-p order
/// (no reassociation), so per element this is the plain ascending-p
/// accumulation loop, bit for bit.
void DenseRowScalar(const float* x, int k, const float* b, int m,
                    float* out_row) {
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const float a0 = x[p], a1 = x[p + 1], a2 = x[p + 2], a3 = x[p + 3];
    const float* b0 = b + static_cast<size_t>(p) * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    for (int j = 0; j < m; ++j) {
      float acc = out_row[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      out_row[j] = acc;
    }
  }
  for (; p < k; ++p) {
    const float av = x[p];
    const float* brow = b + static_cast<size_t>(p) * m;
    for (int j = 0; j < m; ++j) out_row[j] += av * brow[j];
  }
}

/// The multi-row product as its definition: each output row zeroed, then
/// the dense row kernel above.
void DenseRowsScalar(const float* a, int rows, int lda, int k,
                     const float* b, int m, float* out, int ldo) {
  for (int r = 0; r < rows; ++r) {
    float* out_row = out + static_cast<size_t>(r) * ldo;
    std::fill(out_row, out_row + m, 0.0f);
    DenseRowScalar(a + static_cast<size_t>(r) * lda, k, b, m, out_row);
  }
}

void GatLogitsScalar(const float* s_dst, const float* s_edge_row,
                     float s_src_i, float slope, int n, float* logits) {
  for (int j = 0; j < n; ++j) {
    // (s_dst[j] + s_e[ij]) first, then + s_src[i]: the Add node ran
    // before the AddScalarTensor node on the legacy path.
    const float t = s_dst[j] + s_edge_row[j];
    const float pre = t + s_src_i;
    logits[j] = pre > 0.0f ? pre : slope * pre;
  }
}

void AddScalar(float* a, const float* b, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] += b[i];
}

void ReluScalar(float* a, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

// --- tanh: fdlibm s_tanhf.c + s_expm1f.c, ported --------------------------
// The single-precision fdlibm code that glibc (up to at least 2.36, with
// the 5-term Q1..Q5 expm1f polynomial) ships as tanhf. Every operation
// is one IEEE float operation in the source's order, so on any host
// this returns what glibc 2.36's tanhf returns, bit for bit (tanh_sweep
// checks all 2^32 inputs; simd_parity_test pins a table of them and a
// hash of a million more).
// Constants are given as their bit patterns.

inline float FromBits(uint32_t u) { return std::bit_cast<float>(u); }
inline uint32_t ToBits(float f) { return std::bit_cast<uint32_t>(f); }

constexpr uint32_t kLn2Hi = 0x3f317180;   // 6.9313812256e-01
constexpr uint32_t kLn2Lo = 0x3717f7d1;   // 9.0580006145e-06
constexpr uint32_t kInvLn2 = 0x3fb8aa3b;  // 1.4426950216e+00
constexpr uint32_t kQ1 = 0xbd088889;      // -3.3333335072e-02
constexpr uint32_t kQ2 = 0x3ad00d01;      // 1.5873016091e-03
constexpr uint32_t kQ3 = 0xb8a670cd;      // -7.9365076090e-05
constexpr uint32_t kQ4 = 0x36867e54;      // 4.0082177293e-06
constexpr uint32_t kQ5 = 0xb457edbb;      // -2.0109921195e-07

/// expm1f for the arguments tanhf passes it: 2|x| in [2, 44) for
/// 1 <= |x| < 22, and -2|x| in (-2, -2^-54] for 2^-55 <= |x| < 1. So
/// k, the argument's nearest multiple of ln2, is 0, -1, -2 or -3, or 3
/// to 63. The branches of s_expm1f.c no such argument reaches are left
/// out: huge, overflow and non-finite arguments, and k = 1 (positive
/// arguments below 1.5 ln2).
float Expm1ForTanh(float x) {
  const uint32_t hx = ToBits(x) & 0x7fffffffu;
  const bool neg = (ToBits(x) & 0x80000000u) != 0;
  float hi, lo, c = 0.0f;
  int k;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2, so x < 0
      hi = x + FromBits(kLn2Hi);
      lo = -FromBits(kLn2Lo);
      k = -1;
    } else {
      k = static_cast<int>(FromBits(kInvLn2) * x + (neg ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * FromBits(kLn2Hi);  // t * ln2_hi is exact here
      lo = t * FromBits(kLn2Lo);
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  } else {
    k = 0;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (FromBits(kQ1) +
             hxs * (FromBits(kQ2) +
                    hxs * (FromBits(kQ3) +
                           hxs * (FromBits(kQ4) + hxs * FromBits(kQ5)))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  // Adds k to y's exponent field (unsigned, so negative k wraps as the
  // source's int arithmetic does).
  const uint32_t k_exp = static_cast<uint32_t>(k) << 23;
  float y;
  if (k <= -2 || k > 56) {
    y = 1.0f - (e - x);
    y = FromBits(ToBits(y) + k_exp);
    return y - 1.0f;
  }
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = FromBits(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += 1.0f;
  }
  return FromBits(ToBits(y) + k_exp);
}

float TanhOne(float x) {
  const uint32_t jx = ToBits(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {                 // |x| < 22
    if (ix == 0) return x;                // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {              // |x| >= 1
      const float t = Expm1ForTanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1ForTanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1 (1 - tiny rounds to 1)
    z = 1.0f - 1.0e-30f;
  }
  return neg ? -z : z;
}

void TanhScalar(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = TanhOne(x[i]);
}

constexpr KernelTable kScalarTable = {
    Tier::kScalar, &DenseRowScalar, &DenseRowsScalar, &GatLogitsScalar,
    &AddScalar,    &ReluScalar,     &TanhScalar};

#ifdef M2G_SIMD_X86

// --- Row-blocked products (DenseRowsMatMul) --------------------------------
// A block of R <= 4 rows times one column panel keeps its R x V vector
// accumulators in registers across the whole p loop: one broadcast of
// a[r][p] feeds V column vectors, and one load of a b row feeds R rows.
// Per output element this is still +0.0, then one multiply and one add
// per term in ascending p, exactly DenseRowsScalar. Columns left over
// after the vector panels take ColumnTail's scalar loop.

/// One leftover output column c (b and out already offset to it).
template <int R>
inline void ColumnTail(const float* a, int lda, int k, const float* b, int m,
                       float* out, int ldo) {
  float acc[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) acc[r] = 0.0f;
  for (int p = 0; p < k; ++p) {
    const float bv = b[static_cast<size_t>(p) * m];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r] += a[static_cast<size_t>(r) * lda + p] * bv;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) out[static_cast<size_t>(r) * ldo] = acc[r];
}

/// Runs Isa::Block<R> over `rows` in blocks of four rows and one ragged
/// block of 1-3. Isa::Block carries the tier's target attribute.
template <typename Isa>
void RowBlocks(const float* a, int rows, int lda, int k, const float* b,
               int m, float* out, int ldo) {
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    Isa::template Block<4>(a + static_cast<size_t>(r) * lda, lda, k, b, m,
                           out + static_cast<size_t>(r) * ldo, ldo);
  }
  a += static_cast<size_t>(r) * lda;
  out += static_cast<size_t>(r) * ldo;
  switch (rows - r) {
    case 3:
      Isa::template Block<3>(a, lda, k, b, m, out, ldo);
      break;
    case 2:
      Isa::template Block<2>(a, lda, k, b, m, out, ldo);
      break;
    case 1:
      Isa::template Block<1>(a, lda, k, b, m, out, ldo);
      break;
    default:
      break;
  }
}

// --- SSE2 tier (4 lanes) ---------------------------------------------------
// Baseline on x86-64; the explicit target attribute keeps the functions
// well-defined on i386 builds too.

__attribute__((target("sse2"))) void DenseRowSse2(const float* x, int k,
                                                  const float* b, int m,
                                                  float* out_row) {
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m128 a0 = _mm_set1_ps(x[p]);
    const __m128 a1 = _mm_set1_ps(x[p + 1]);
    const __m128 a2 = _mm_set1_ps(x[p + 2]);
    const __m128 a3 = _mm_set1_ps(x[p + 3]);
    const float* b0 = b + static_cast<size_t>(p) * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      __m128 acc = _mm_loadu_ps(out_row + j);
      acc = _mm_add_ps(acc, _mm_mul_ps(a0, _mm_loadu_ps(b0 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(a1, _mm_loadu_ps(b1 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(a2, _mm_loadu_ps(b2 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(a3, _mm_loadu_ps(b3 + j)));
      _mm_storeu_ps(out_row + j, acc);
    }
    for (; j < m; ++j) {
      float acc = out_row[j];
      acc += x[p] * b0[j];
      acc += x[p + 1] * b1[j];
      acc += x[p + 2] * b2[j];
      acc += x[p + 3] * b3[j];
      out_row[j] = acc;
    }
  }
  for (; p < k; ++p) {
    const __m128 av = _mm_set1_ps(x[p]);
    const float* brow = b + static_cast<size_t>(p) * m;
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      _mm_storeu_ps(out_row + j,
                    _mm_add_ps(_mm_loadu_ps(out_row + j),
                               _mm_mul_ps(av, _mm_loadu_ps(brow + j))));
    }
    for (; j < m; ++j) out_row[j] += x[p] * brow[j];
  }
}

/// R rows x V 4-lane vectors of columns.
template <int R, int V>
__attribute__((target("sse2"))) inline void PanelSse2(const float* a, int lda,
                                                      int k, const float* b,
                                                      int m, float* out,
                                                      int ldo) {
  __m128 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * m;
    __m128 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = _mm_loadu_ps(brow + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m128 av = _mm_set1_ps(a[static_cast<size_t>(r) * lda + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm_add_ps(acc[r][v], _mm_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm_storeu_ps(out + static_cast<size_t>(r) * ldo + 4 * v, acc[r][v]);
    }
  }
}

struct Sse2Rows {
  /// R rows: 8-column panels, then one 4-column panel, then ColumnTail.
  template <int R>
  __attribute__((target("sse2"))) static void Block(const float* a, int lda,
                                                    int k, const float* b,
                                                    int m, float* out,
                                                    int ldo) {
    int j = 0;
    for (; j + 8 <= m; j += 8) {
      PanelSse2<R, 2>(a, lda, k, b + j, m, out + j, ldo);
    }
    if (j + 4 <= m) {
      PanelSse2<R, 1>(a, lda, k, b + j, m, out + j, ldo);
      j += 4;
    }
    for (; j < m; ++j) ColumnTail<R>(a, lda, k, b + j, m, out + j, ldo);
  }
};

__attribute__((target("sse2"))) void GatLogitsSse2(const float* s_dst,
                                                   const float* s_edge_row,
                                                   float s_src_i, float slope,
                                                   int n, float* logits) {
  const __m128 vsrc = _mm_set1_ps(s_src_i);
  const __m128 vslope = _mm_set1_ps(slope);
  const __m128 vzero = _mm_setzero_ps();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128 t =
        _mm_add_ps(_mm_loadu_ps(s_dst + j), _mm_loadu_ps(s_edge_row + j));
    const __m128 pre = _mm_add_ps(t, vsrc);
    const __m128 neg = _mm_mul_ps(vslope, pre);
    // pre > 0 ? pre : slope * pre as mask arithmetic (SSE2 has no
    // blendv): NaN lanes compare false and take the slope * pre arm,
    // exactly like the scalar ternary.
    const __m128 gt = _mm_cmpgt_ps(pre, vzero);
    _mm_storeu_ps(logits + j,
                  _mm_or_ps(_mm_and_ps(gt, pre), _mm_andnot_ps(gt, neg)));
  }
  for (; j < n; ++j) {
    const float t = s_dst[j] + s_edge_row[j];
    const float pre = t + s_src_i;
    logits[j] = pre > 0.0f ? pre : slope * pre;
  }
}

__attribute__((target("sse2"))) void AddSse2(float* a, const float* b,
                                             size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(a + i,
                  _mm_add_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

__attribute__((target("sse2"))) void ReluSse2(float* a, size_t n) {
  const __m128 vzero = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_loadu_ps(a + i);
    // False lanes (<= 0, -0.0, NaN) become the +0.0 bit pattern — the
    // scalar ternary's 0.0f.
    _mm_storeu_ps(a + i, _mm_and_ps(_mm_cmpgt_ps(v, vzero), v));
  }
  for (; i < n; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

// tanh, lane by lane: every lane computes every branch of TanhOne and
// Expm1ForTanh, and compare masks select each lane's branch. The
// branches' arithmetic is the scalar port's, one vector op per scalar
// op, so each lane is bitwise TanhOne of its input.

/// mask ? a : b (SSE2 has no blendv).
__attribute__((target("sse2"))) inline __m128 SelectSse2(__m128 mask,
                                                         __m128 a, __m128 b) {
  return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
}

/// Expm1ForTanh on 4 lanes (same argument domain).
__attribute__((target("sse2"), always_inline)) inline __m128 Expm1Sse2(
    __m128 x) {
  const __m128i hx =
      _mm_and_si128(_mm_castps_si128(x), _mm_set1_epi32(0x7fffffff));
  const __m128 sign = _mm_and_ps(x, _mm_set1_ps(-0.0f));
  // k: 0 up to 0.5 ln2, -1 up to 1.5 ln2 (only negative arguments are
  // that small), else (int)(x/ln2 +- 0.5). The all-ones compare mask is
  // that -1. With t = k as a float, hi = x - t*ln2_hi and lo = t*ln2_lo
  // are the source's hi/lo in all three cases (exactly x and 0 for
  // k = 0).
  const __m128i above_half = _mm_cmpgt_epi32(hx, _mm_set1_epi32(0x3eb17218));
  const __m128i above_mid = _mm_cmpgt_epi32(hx, _mm_set1_epi32(0x3f851591));
  const __m128i k_far = _mm_cvttps_epi32(
      _mm_add_ps(_mm_mul_ps(_mm_set1_ps(FromBits(kInvLn2)), x),
                 _mm_or_ps(_mm_set1_ps(0.5f), sign)));
  const __m128i k = _mm_or_si128(_mm_and_si128(above_mid, k_far),
                                 _mm_andnot_si128(above_mid, above_half));
  const __m128 tk = _mm_cvtepi32_ps(k);
  const __m128 hi =
      _mm_sub_ps(x, _mm_mul_ps(tk, _mm_set1_ps(FromBits(kLn2Hi))));
  const __m128 lo = _mm_mul_ps(tk, _mm_set1_ps(FromBits(kLn2Lo)));
  const __m128 xr = _mm_sub_ps(hi, lo);
  const __m128 c = _mm_sub_ps(_mm_sub_ps(hi, xr), lo);

  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 hfx = _mm_mul_ps(half, xr);
  const __m128 hxs = _mm_mul_ps(xr, hfx);
  __m128 r1 = _mm_add_ps(_mm_set1_ps(FromBits(kQ4)),
                         _mm_mul_ps(hxs, _mm_set1_ps(FromBits(kQ5))));
  r1 = _mm_add_ps(_mm_set1_ps(FromBits(kQ3)), _mm_mul_ps(hxs, r1));
  r1 = _mm_add_ps(_mm_set1_ps(FromBits(kQ2)), _mm_mul_ps(hxs, r1));
  r1 = _mm_add_ps(_mm_set1_ps(FromBits(kQ1)), _mm_mul_ps(hxs, r1));
  r1 = _mm_add_ps(one, _mm_mul_ps(hxs, r1));
  const __m128 t = _mm_sub_ps(_mm_set1_ps(3.0f), _mm_mul_ps(r1, hfx));
  __m128 e = _mm_mul_ps(
      hxs, _mm_div_ps(_mm_sub_ps(r1, t),
                      _mm_sub_ps(_mm_set1_ps(6.0f), _mm_mul_ps(xr, t))));
  const __m128 r_k0 = _mm_sub_ps(xr, _mm_sub_ps(_mm_mul_ps(xr, e), hxs));
  e = _mm_sub_ps(_mm_sub_ps(_mm_mul_ps(xr, _mm_sub_ps(e, c)), c), hxs);
  const __m128 e_minus_x = _mm_sub_ps(e, xr);
  const __m128 r_km1 = _mm_sub_ps(_mm_mul_ps(half, _mm_sub_ps(xr, e)), half);
  const __m128i k_exp = _mm_slli_epi32(k, 23);
  // 2^-k; 1 - 2^-k is exact for k < 23, the source's 0x3f800000 -
  // (0x1000000 >> k).
  const __m128 pow2_mk = _mm_castsi128_ps(
      _mm_slli_epi32(_mm_sub_epi32(_mm_set1_epi32(0x7f), k), 23));
  const __m128 r_wide = _mm_sub_ps(
      _mm_castsi128_ps(_mm_add_epi32(
          _mm_castps_si128(_mm_sub_ps(one, e_minus_x)), k_exp)),
      one);
  const __m128 r_mid = _mm_castsi128_ps(_mm_add_epi32(
      _mm_castps_si128(_mm_sub_ps(_mm_sub_ps(one, pow2_mk), e_minus_x)),
      k_exp));
  const __m128 r_high = _mm_castsi128_ps(_mm_add_epi32(
      _mm_castps_si128(
          _mm_add_ps(_mm_sub_ps(xr, _mm_add_ps(e, pow2_mk)), one)),
      k_exp));

  const __m128i high = _mm_cmpgt_epi32(k, _mm_set1_epi32(22));
  const __m128i wide =
      _mm_or_si128(_mm_cmpgt_epi32(k, _mm_set1_epi32(56)),
                   _mm_cmplt_epi32(k, _mm_set1_epi32(-1)));
  const __m128i km1 = _mm_cmpeq_epi32(k, _mm_set1_epi32(-1));
  const __m128i k0 = _mm_cmpeq_epi32(k, _mm_setzero_si128());
  const __m128i tiny = _mm_cmplt_epi32(hx, _mm_set1_epi32(0x33000000));
  __m128 r = SelectSse2(_mm_castsi128_ps(high), r_high, r_mid);
  r = SelectSse2(_mm_castsi128_ps(wide), r_wide, r);
  r = SelectSse2(_mm_castsi128_ps(km1), r_km1, r);
  r = SelectSse2(_mm_castsi128_ps(k0), r_k0, r);
  return SelectSse2(_mm_castsi128_ps(tiny), x, r);
}

/// TanhOne on 4 lanes.
__attribute__((target("sse2"), always_inline)) inline __m128 TanhVecSse2(
    __m128 x) {
  const __m128i ix =
      _mm_and_si128(_mm_castps_si128(x), _mm_set1_epi32(0x7fffffff));
  const __m128 sign_bit = _mm_set1_ps(-0.0f);
  const __m128 sign = _mm_and_ps(x, sign_bit);
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 two = _mm_set1_ps(2.0f);
  // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); below: -t/(t + 2) with
  // t = expm1(-2|x|). One divide: (ge1 ? 2 : -t) / (t + 2).
  const __m128 ge1 =
      _mm_castsi128_ps(_mm_cmpgt_epi32(ix, _mm_set1_epi32(0x3f7fffff)));
  const __m128 arg = _mm_xor_ps(_mm_mul_ps(two, _mm_castsi128_ps(ix)),
                                _mm_andnot_ps(ge1, sign_bit));
  const __m128 t = Expm1Sse2(arg);
  const __m128 q = _mm_div_ps(SelectSse2(ge1, two, _mm_xor_ps(t, sign_bit)),
                              _mm_add_ps(t, two));
  __m128 z = SelectSse2(ge1, _mm_sub_ps(one, q), q);
  // |x| >= 22 and +-inf: 1 (1 - tiny rounds to 1), then the sign.
  const __m128i ge22 = _mm_cmpgt_epi32(ix, _mm_set1_epi32(0x41afffff));
  z = SelectSse2(_mm_castsi128_ps(ge22), one, z);
  z = _mm_xor_ps(z, sign);
  // |x| < 2^-55, +-0 and denormals included: x * (1 + x) (exactly x
  // for +-0, the source's separate zero case).
  const __m128i tiny = _mm_cmplt_epi32(ix, _mm_set1_epi32(0x24000000));
  z = SelectSse2(_mm_castsi128_ps(tiny), _mm_mul_ps(x, _mm_add_ps(one, x)), z);
  // NaN: the source's 1/x +- 1 is x quieted, as x + x is.
  return SelectSse2(_mm_cmpunord_ps(x, x), _mm_add_ps(x, x), z);
}

__attribute__((target("sse2"))) void TanhSse2(const float* x, float* y,
                                              int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, TanhVecSse2(_mm_loadu_ps(x + i)));
  }
  if (i < n) {
    // Ragged tail through one padded vector, so every element takes the
    // vector code.
    float buf[4] = {};
    std::copy(x + i, x + n, buf);
    _mm_storeu_ps(buf, TanhVecSse2(_mm_loadu_ps(buf)));
    std::copy(buf, buf + (n - i), y + i);
  }
}

constexpr KernelTable kSse2Table = {
    Tier::kSse2, &DenseRowSse2, &RowBlocks<Sse2Rows>, &GatLogitsSse2,
    &AddSse2,    &ReluSse2,     &TanhSse2};

// --- AVX2 tier (8 lanes) ---------------------------------------------------

__attribute__((target("avx2"))) void DenseRowAvx2(const float* x, int k,
                                                  const float* b, int m,
                                                  float* out_row) {
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256 a0 = _mm256_set1_ps(x[p]);
    const __m256 a1 = _mm256_set1_ps(x[p + 1]);
    const __m256 a2 = _mm256_set1_ps(x[p + 2]);
    const __m256 a3 = _mm256_set1_ps(x[p + 3]);
    const float* b0 = b + static_cast<size_t>(p) * m;
    const float* b1 = b0 + m;
    const float* b2 = b1 + m;
    const float* b3 = b2 + m;
    int j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 acc = _mm256_loadu_ps(out_row + j);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a0, _mm256_loadu_ps(b0 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a1, _mm256_loadu_ps(b1 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a2, _mm256_loadu_ps(b2 + j)));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(a3, _mm256_loadu_ps(b3 + j)));
      _mm256_storeu_ps(out_row + j, acc);
    }
    // One 4-lane step before the scalar tail (dh = 12 leaves 4 columns).
    if (j + 4 <= m) {
      __m128 acc = _mm_loadu_ps(out_row + j);
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm256_castps256_ps128(a0),
                                       _mm_loadu_ps(b0 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm256_castps256_ps128(a1),
                                       _mm_loadu_ps(b1 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm256_castps256_ps128(a2),
                                       _mm_loadu_ps(b2 + j)));
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm256_castps256_ps128(a3),
                                       _mm_loadu_ps(b3 + j)));
      _mm_storeu_ps(out_row + j, acc);
      j += 4;
    }
    for (; j < m; ++j) {
      float acc = out_row[j];
      acc += x[p] * b0[j];
      acc += x[p + 1] * b1[j];
      acc += x[p + 2] * b2[j];
      acc += x[p + 3] * b3[j];
      out_row[j] = acc;
    }
  }
  for (; p < k; ++p) {
    const __m256 av = _mm256_set1_ps(x[p]);
    const float* brow = b + static_cast<size_t>(p) * m;
    int j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(
          out_row + j,
          _mm256_add_ps(_mm256_loadu_ps(out_row + j),
                        _mm256_mul_ps(av, _mm256_loadu_ps(brow + j))));
    }
    if (j + 4 <= m) {
      _mm_storeu_ps(out_row + j,
                    _mm_add_ps(_mm_loadu_ps(out_row + j),
                               _mm_mul_ps(_mm256_castps256_ps128(av),
                                          _mm_loadu_ps(brow + j))));
      j += 4;
    }
    for (; j < m; ++j) out_row[j] += x[p] * brow[j];
  }
}

/// R rows x V 8-lane vectors of columns.
template <int R, int V>
__attribute__((target("avx2"))) inline void PanelAvx2(const float* a, int lda,
                                                      int k, const float* b,
                                                      int m, float* out,
                                                      int ldo) {
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * m;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av =
          _mm256_set1_ps(a[static_cast<size_t>(r) * lda + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(out + static_cast<size_t>(r) * ldo + 8 * v,
                       acc[r][v]);
    }
  }
}

struct Avx2Rows {
  /// R rows: 16-column panels, then one 8-, then one 4-column panel,
  /// then ColumnTail.
  template <int R>
  __attribute__((target("avx2"))) static void Block(const float* a, int lda,
                                                    int k, const float* b,
                                                    int m, float* out,
                                                    int ldo) {
    int j = 0;
    for (; j + 16 <= m; j += 16) {
      PanelAvx2<R, 2>(a, lda, k, b + j, m, out + j, ldo);
    }
    if (j + 8 <= m) {
      PanelAvx2<R, 1>(a, lda, k, b + j, m, out + j, ldo);
      j += 8;
    }
    if (j + 4 <= m) {
      // The d_h = 12 and P = 4 remainders: SSE2's 4-lane panel, inlined
      // here with VEX encoding.
      PanelSse2<R, 1>(a, lda, k, b + j, m, out + j, ldo);
      j += 4;
    }
    for (; j < m; ++j) ColumnTail<R>(a, lda, k, b + j, m, out + j, ldo);
  }
};

__attribute__((target("avx2"))) void GatLogitsAvx2(const float* s_dst,
                                                   const float* s_edge_row,
                                                   float s_src_i, float slope,
                                                   int n, float* logits) {
  const __m256 vsrc = _mm256_set1_ps(s_src_i);
  const __m256 vslope = _mm256_set1_ps(slope);
  const __m256 vzero = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_add_ps(_mm256_loadu_ps(s_dst + j),
                                   _mm256_loadu_ps(s_edge_row + j));
    const __m256 pre = _mm256_add_ps(t, vsrc);
    const __m256 neg = _mm256_mul_ps(vslope, pre);
    // Ordered quiet > : NaN lanes select slope * pre like the scalar
    // ternary's else-branch.
    const __m256 gt = _mm256_cmp_ps(pre, vzero, _CMP_GT_OQ);
    _mm256_storeu_ps(logits + j, _mm256_blendv_ps(neg, pre, gt));
  }
  for (; j < n; ++j) {
    const float t = s_dst[j] + s_edge_row[j];
    const float pre = t + s_src_i;
    logits[j] = pre > 0.0f ? pre : slope * pre;
  }
}

__attribute__((target("avx2"))) void AddAvx2(float* a, const float* b,
                                             size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

__attribute__((target("avx2"))) void ReluAvx2(float* a, size_t n) {
  const __m256 vzero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(
        a + i, _mm256_and_ps(_mm256_cmp_ps(v, vzero, _CMP_GT_OQ), v));
  }
  for (; i < n; ++i) a[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

// tanh on 8 lanes: TanhVecSse2 / Expm1Sse2 op for op, with blendv for
// the selects.

__attribute__((target("avx2"), always_inline)) inline __m256 Expm1Avx2(
    __m256 x) {
  const __m256i hx =
      _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fffffff));
  const __m256 sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0f));
  const __m256i above_half =
      _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb17218));
  const __m256i above_mid =
      _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3f851591));
  const __m256i k_far = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(FromBits(kInvLn2)), x),
                    _mm256_or_ps(_mm256_set1_ps(0.5f), sign)));
  const __m256i k = _mm256_blendv_epi8(above_half, k_far, above_mid);
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi =
      _mm256_sub_ps(x, _mm256_mul_ps(tk, _mm256_set1_ps(FromBits(kLn2Hi))));
  const __m256 lo = _mm256_mul_ps(tk, _mm256_set1_ps(FromBits(kLn2Lo)));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 r1 = _mm256_add_ps(_mm256_set1_ps(FromBits(kQ4)),
                            _mm256_mul_ps(hxs, _mm256_set1_ps(FromBits(kQ5))));
  r1 = _mm256_add_ps(_mm256_set1_ps(FromBits(kQ3)), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(_mm256_set1_ps(FromBits(kQ2)), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(_mm256_set1_ps(FromBits(kQ1)), _mm256_mul_ps(hxs, r1));
  r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, r1));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs,
      _mm256_div_ps(_mm256_sub_ps(r1, t),
                    _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(xr, t))));
  const __m256 r_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
  const __m256i k_exp = _mm256_slli_epi32(k, 23);
  const __m256 pow2_mk = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 r_wide = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(
          _mm256_castps_si256(_mm256_sub_ps(one, e_minus_x)), k_exp)),
      one);
  const __m256 r_mid = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(
          _mm256_sub_ps(_mm256_sub_ps(one, pow2_mk), e_minus_x)),
      k_exp));
  const __m256 r_high = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(_mm256_add_ps(
          _mm256_sub_ps(xr, _mm256_add_ps(e, pow2_mk)), one)),
      k_exp));

  const __m256i high = _mm256_cmpgt_epi32(k, _mm256_set1_epi32(22));
  const __m256i wide =
      _mm256_or_si256(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
                      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k));
  const __m256i km1 = _mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1));
  const __m256i k0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
  const __m256i tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), hx);
  __m256 r = _mm256_blendv_ps(r_mid, r_high, _mm256_castsi256_ps(high));
  r = _mm256_blendv_ps(r, r_wide, _mm256_castsi256_ps(wide));
  r = _mm256_blendv_ps(r, r_km1, _mm256_castsi256_ps(km1));
  r = _mm256_blendv_ps(r, r_k0, _mm256_castsi256_ps(k0));
  return _mm256_blendv_ps(r, x, _mm256_castsi256_ps(tiny));
}

__attribute__((target("avx2"), always_inline)) inline __m256 TanhVecAvx2(
    __m256 x) {
  const __m256i ix =
      _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fffffff));
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 ge1 = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff)));
  const __m256 arg =
      _mm256_xor_ps(_mm256_mul_ps(two, _mm256_castsi256_ps(ix)),
                    _mm256_andnot_ps(ge1, sign_bit));
  const __m256 t = Expm1Avx2(arg);
  const __m256 q =
      _mm256_div_ps(_mm256_blendv_ps(_mm256_xor_ps(t, sign_bit), two, ge1),
                    _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge1);
  const __m256i ge22 = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff));
  z = _mm256_blendv_ps(z, one, _mm256_castsi256_ps(ge22));
  z = _mm256_xor_ps(z, sign);
  const __m256i tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x24000000), ix);
  z = _mm256_blendv_ps(z, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
                       _mm256_castsi256_ps(tiny));
  return _mm256_blendv_ps(z, _mm256_add_ps(x, x),
                          _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

__attribute__((target("avx2"))) void TanhAvx2(const float* x, float* y,
                                              int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhVecAvx2(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    float buf[8] = {};
    std::copy(x + i, x + n, buf);
    _mm256_storeu_ps(buf, TanhVecAvx2(_mm256_loadu_ps(buf)));
    std::copy(buf, buf + (n - i), y + i);
  }
}

constexpr KernelTable kAvx2Table = {
    Tier::kAvx2, &DenseRowAvx2, &RowBlocks<Avx2Rows>, &GatLogitsAvx2,
    &AddAvx2,    &ReluAvx2,     &TanhAvx2};

#endif  // M2G_SIMD_X86

const KernelTable* TableFor(Tier tier) {
#ifdef M2G_SIMD_X86
  switch (tier) {
    case Tier::kAvx2:
      return &kAvx2Table;
    case Tier::kSse2:
      return &kSse2Table;
    case Tier::kScalar:
      return &kScalarTable;
  }
#else
  (void)tier;
#endif
  return &kScalarTable;
}

/// Startup tier: detected hardware, possibly lowered by M2G_SIMD. Read
/// once, lazily, at the first kernel call (so setenv in a test harness
/// that runs before any tensor work still takes effect).
const KernelTable* InitialTable() {
  Tier tier = DetectedTier();
  if (const char* env = std::getenv("M2G_SIMD")) {
    Tier requested;
    if (ParseTierName(env, &requested)) {
      if (requested > tier) {
        std::fprintf(stderr,
                     "[simd] M2G_SIMD=%s not supported by this CPU; "
                     "using %s\n",
                     env, TierName(tier));
      } else {
        tier = requested;
      }
    } else if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      std::fprintf(stderr,
                   "[simd] unknown M2G_SIMD value \"%s\" "
                   "(want off|scalar|sse2|avx2|auto); using %s\n",
                   env, TierName(tier));
    }
  }
  return TableFor(tier);
}

std::atomic<const KernelTable*>& ActiveTable() {
  static std::atomic<const KernelTable*> table{InitialTable()};
  return table;
}

const KernelTable* Active() {
  return ActiveTable().load(std::memory_order_acquire);
}

/// Pull-time gauges, same pattern as the pool's arena counters: the
/// value is read from the dispatch state only when a snapshot is taken.
struct SimdMetricsRegistrar {
  SimdMetricsRegistrar() {
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "tensor.simd_tier",
        [] { return static_cast<double>(static_cast<int>(ActiveTier())); });
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "tensor.simd_tier_detected", [] {
          return static_cast<double>(static_cast<int>(DetectedTier()));
        });
  }
};
const SimdMetricsRegistrar g_simd_metrics_registrar;

}  // namespace

Tier DetectedTier() {
#ifdef M2G_SIMD_X86
  static const Tier tier = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Tier::kSse2;
    return Tier::kScalar;
  }();
  return tier;
#else
  return Tier::kScalar;
#endif
}

Tier ActiveTier() { return Active()->tier; }

void SetTier(Tier tier) {
  if (tier > DetectedTier()) tier = DetectedTier();
  ActiveTable().store(TableFor(tier), std::memory_order_release);
}

bool ParseTierName(const char* name, Tier* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || std::strcmp(name, "scalar") == 0) {
    *out = Tier::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse2") == 0) {
    *out = Tier::kSse2;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = Tier::kAvx2;
    return true;
  }
  return false;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kSse2:
      return "sse2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

void DenseRowMatMul(const float* x, int k, const float* b, int m,
                    float* out_row) {
  Active()->dense_row(x, k, b, m, out_row);
}

void DenseRowsMatMul(const float* a, int rows, int lda, int k,
                     const float* b, int m, float* out, int ldo) {
  Active()->dense_rows(a, rows, lda, k, b, m, out, ldo);
}

void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits) {
  Active()->gat_logits(s_dst, s_edge_row, s_src_i, slope, n, logits);
}

void AddInPlace(float* a, const float* b, size_t n) {
  Active()->add(a, b, n);
}

void ReluInPlace(float* a, size_t n) { Active()->relu(a, n); }

void TanhRow(const float* x, float* y, int n) { Active()->tanh(x, y, n); }

}  // namespace m2g::simd
