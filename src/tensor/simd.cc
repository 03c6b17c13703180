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
  void (*gat_edge_relu)(const float*, const float*, const float*, int,
                        float*, float*);
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

/// The fused GAT-e encode's Eq. 23/25 edge epilogue, in the autograd
/// Add chain's association order, ReLU as the Relu op's ternary.
void GatEdgeReluScalar(const float* ew3, const float* nw4_row,
                       const float* nw5_row, int dh, float* dst,
                       float* sum) {
  for (int c = 0; c < dh; ++c) {
    const float v = ew3[c] + (nw4_row[c] + nw5_row[c]);
    dst[c] = v > 0.0f ? v : 0.0f;
  }
  if (sum != nullptr) {
    for (int c = 0; c < dh; ++c) sum[c] += dst[c];
  }
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
    &AddScalar,    &ReluScalar,     &TanhScalar,      &GatEdgeReluScalar};

#ifdef M2G_SIMD_X86

// --- Vector tiers ----------------------------------------------------------
// Each vector kernel is written once, in tensor/simd_vector.inc, over an
// op set V: the tier's vector types, its lane count and one
// always_inline wrapper per intrinsic it uses. The body is included once
// per tier below, under that tier's target attribute, so each copy
// compiles to that tier's own instructions. A template over the op set
// could not vary the target attribute per instance, and #pragma GCC
// target regions are GCC-only; textual inclusion keeps one body, one
// attribute per copy, and this TU's -ffp-contract=off.

#define M2G_OP(isa) __attribute__((target(isa), always_inline)) static

/// SSE2: 4 lanes. Baseline on x86-64; the explicit target attribute
/// keeps the functions well-defined on i386 builds too.
struct Sse2Ops {
  using F = __m128;
  using I = __m128i;
  static constexpr int kLanes = 4;
  /// The ops of the 4-lane remainder steps, and the low 4 lanes of a
  /// vector (here all of them; a tier of 4 lanes never takes the step).
  using Four = Sse2Ops;
  M2G_OP("sse2") F Low4(F v) { return v; }

  M2G_OP("sse2") F Zero() { return _mm_setzero_ps(); }
  M2G_OP("sse2") F Set(float v) { return _mm_set1_ps(v); }
  M2G_OP("sse2") F Load(const float* p) { return _mm_loadu_ps(p); }
  M2G_OP("sse2") void Store(float* p, F v) { _mm_storeu_ps(p, v); }
  M2G_OP("sse2") F Add(F a, F b) { return _mm_add_ps(a, b); }
  M2G_OP("sse2") F Sub(F a, F b) { return _mm_sub_ps(a, b); }
  M2G_OP("sse2") F Mul(F a, F b) { return _mm_mul_ps(a, b); }
  M2G_OP("sse2") F Div(F a, F b) { return _mm_div_ps(a, b); }
  M2G_OP("sse2") F And(F a, F b) { return _mm_and_ps(a, b); }
  M2G_OP("sse2") F AndNot(F a, F b) { return _mm_andnot_ps(a, b); }
  M2G_OP("sse2") F Or(F a, F b) { return _mm_or_ps(a, b); }
  M2G_OP("sse2") F Xor(F a, F b) { return _mm_xor_ps(a, b); }
  M2G_OP("sse2") F Gt(F a, F b) { return _mm_cmpgt_ps(a, b); }
  M2G_OP("sse2") F Unord(F a, F b) { return _mm_cmpunord_ps(a, b); }
  /// m ? a : b lane by lane, as mask arithmetic (SSE2 has no blendv).
  M2G_OP("sse2") F Select(F m, F a, F b) { return Or(And(m, a), AndNot(m, b)); }

  M2G_OP("sse2") I SetI(int v) { return _mm_set1_epi32(v); }
  M2G_OP("sse2") I AsI(F v) { return _mm_castps_si128(v); }
  M2G_OP("sse2") F AsF(I v) { return _mm_castsi128_ps(v); }
  M2G_OP("sse2") I Cvtt(F v) { return _mm_cvttps_epi32(v); }
  M2G_OP("sse2") F Cvt(I v) { return _mm_cvtepi32_ps(v); }
  M2G_OP("sse2") I AndI(I a, I b) { return _mm_and_si128(a, b); }
  M2G_OP("sse2") I OrI(I a, I b) { return _mm_or_si128(a, b); }
  M2G_OP("sse2") I AddI(I a, I b) { return _mm_add_epi32(a, b); }
  M2G_OP("sse2") I SubI(I a, I b) { return _mm_sub_epi32(a, b); }
  M2G_OP("sse2") I Shl23(I a) { return _mm_slli_epi32(a, 23); }
  M2G_OP("sse2") I GtI(I a, I b) { return _mm_cmpgt_epi32(a, b); }
  M2G_OP("sse2") I LtI(I a, I b) { return _mm_cmplt_epi32(a, b); }
  M2G_OP("sse2") I EqI(I a, I b) { return _mm_cmpeq_epi32(a, b); }
  M2G_OP("sse2") I SelectI(I m, I a, I b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  }
};

/// AVX2: 8 lanes, and SSE2's ops on the low 4 for the remainder steps
/// (VEX-encoded, since they are inlined into AVX2-tier functions).
struct Avx2Ops {
  using F = __m256;
  using I = __m256i;
  static constexpr int kLanes = 8;
  using Four = Sse2Ops;
  M2G_OP("avx2") __m128 Low4(F v) { return _mm256_castps256_ps128(v); }

  M2G_OP("avx2") F Zero() { return _mm256_setzero_ps(); }
  M2G_OP("avx2") F Set(float v) { return _mm256_set1_ps(v); }
  M2G_OP("avx2") F Load(const float* p) { return _mm256_loadu_ps(p); }
  M2G_OP("avx2") void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  M2G_OP("avx2") F Add(F a, F b) { return _mm256_add_ps(a, b); }
  M2G_OP("avx2") F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  M2G_OP("avx2") F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  M2G_OP("avx2") F Div(F a, F b) { return _mm256_div_ps(a, b); }
  M2G_OP("avx2") F And(F a, F b) { return _mm256_and_ps(a, b); }
  M2G_OP("avx2") F AndNot(F a, F b) { return _mm256_andnot_ps(a, b); }
  M2G_OP("avx2") F Or(F a, F b) { return _mm256_or_ps(a, b); }
  M2G_OP("avx2") F Xor(F a, F b) { return _mm256_xor_ps(a, b); }
  // Ordered quiet compares: NaN lanes are false, as in the scalar code.
  M2G_OP("avx2") F Gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  M2G_OP("avx2") F Unord(F a, F b) {
    return _mm256_cmp_ps(a, b, _CMP_UNORD_Q);
  }
  M2G_OP("avx2") F Select(F m, F a, F b) { return _mm256_blendv_ps(b, a, m); }

  M2G_OP("avx2") I SetI(int v) { return _mm256_set1_epi32(v); }
  M2G_OP("avx2") I AsI(F v) { return _mm256_castps_si256(v); }
  M2G_OP("avx2") F AsF(I v) { return _mm256_castsi256_ps(v); }
  M2G_OP("avx2") I Cvtt(F v) { return _mm256_cvttps_epi32(v); }
  M2G_OP("avx2") F Cvt(I v) { return _mm256_cvtepi32_ps(v); }
  M2G_OP("avx2") I AndI(I a, I b) { return _mm256_and_si256(a, b); }
  M2G_OP("avx2") I OrI(I a, I b) { return _mm256_or_si256(a, b); }
  M2G_OP("avx2") I AddI(I a, I b) { return _mm256_add_epi32(a, b); }
  M2G_OP("avx2") I SubI(I a, I b) { return _mm256_sub_epi32(a, b); }
  M2G_OP("avx2") I Shl23(I a) { return _mm256_slli_epi32(a, 23); }
  M2G_OP("avx2") I GtI(I a, I b) { return _mm256_cmpgt_epi32(a, b); }
  M2G_OP("avx2") I LtI(I a, I b) { return _mm256_cmpgt_epi32(b, a); }
  M2G_OP("avx2") I EqI(I a, I b) { return _mm256_cmpeq_epi32(a, b); }
  M2G_OP("avx2") I SelectI(I m, I a, I b) {
    return _mm256_blendv_epi8(b, a, m);
  }
};

#undef M2G_OP

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

/// Runs Isa::Block<R>, a tier's Rows::Block, over `rows` in blocks of
/// four rows and one ragged block of 1-3. Isa::Block carries the tier's
/// target attribute.
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

namespace sse2 {
using V = Sse2Ops;
#define M2G_TIER __attribute__((target("sse2")))
#include "tensor/simd_vector.inc"
#undef M2G_TIER
}  // namespace sse2

constexpr KernelTable kSse2Table = {
    Tier::kSse2,      &sse2::DenseRow, &RowBlocks<sse2::Rows>,
    &sse2::GatLogits, &sse2::Add,      &sse2::Relu,
    &sse2::Tanh,      &sse2::GatEdgeRelu};

namespace avx2 {
using V = Avx2Ops;
#define M2G_TIER __attribute__((target("avx2")))
#include "tensor/simd_vector.inc"
#undef M2G_TIER
}  // namespace avx2

constexpr KernelTable kAvx2Table = {
    Tier::kAvx2,      &avx2::DenseRow, &RowBlocks<avx2::Rows>,
    &avx2::GatLogits, &avx2::Add,      &avx2::Relu,
    &avx2::Tanh,      &avx2::GatEdgeRelu};

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

void GatEdgeRelu(const float* ew3, const float* nw4_row, const float* nw5_row,
                 int dh, float* dst, float* sum) {
  Active()->gat_edge_relu(ew3, nw4_row, nw5_row, dh, dst, sum);
}

}  // namespace m2g::simd
