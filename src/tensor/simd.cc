#include "tensor/simd.h"

#include <atomic>
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
  void (*gat_logits)(const float*, const float*, float, float, int, float*);
  void (*add)(float*, const float*, size_t);
  void (*relu)(float*, size_t);
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

constexpr KernelTable kScalarTable = {Tier::kScalar, &DenseRowScalar,
                                      &GatLogitsScalar, &AddScalar,
                                      &ReluScalar};

#ifdef M2G_SIMD_X86

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

constexpr KernelTable kSse2Table = {Tier::kSse2, &DenseRowSse2,
                                    &GatLogitsSse2, &AddSse2, &ReluSse2};

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

constexpr KernelTable kAvx2Table = {Tier::kAvx2, &DenseRowAvx2,
                                    &GatLogitsAvx2, &AddAvx2, &ReluAvx2};

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

void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits) {
  Active()->gat_logits(s_dst, s_edge_row, s_src_i, slope, n, logits);
}

void AddInPlace(float* a, const float* b, size_t n) {
  Active()->add(a, b, n);
}

void ReluInPlace(float* a, size_t n) { Active()->relu(a, n); }

}  // namespace m2g::simd
