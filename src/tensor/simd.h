#ifndef M2G_TENSOR_SIMD_H_
#define M2G_TENSOR_SIMD_H_

#include <cstddef>

namespace m2g::simd {

// ---------------------------------------------------------------------------
// Runtime-dispatched SIMD kernel tier.
//
// Every hot path in the library (encode/decode fast paths, training
// matmuls, the LSTM gate block, every tanh, the GAT-e edge epilogue)
// bottoms out in the handful of row kernels below. Each comes in three
// tiers — scalar, SSE2, AVX2 — and the best tier the CPU supports is
// selected once at startup via CPUID. Each kernel is written twice:
//   * the scalar tier (tensor/simd.cc) is the plain loop, and the
//     bitwise oracle simd_parity_test and tools/tanh_sweep compare the
//     other tiers against;
//   * one vector body (tensor/simd_vector.inc) is written over an op
//     set — the tier's vector types, lane count, and one always_inline
//     wrapper per intrinsic it uses (Sse2Ops: 4 lanes; Avx2Ops: 8 lanes
//     plus SSE2's ops for its 4-lane remainder steps). simd.cc includes
//     the body once per tier, inside a namespace whose functions carry
//     that tier's target attribute (no global -march change). The body
//     must carry the attribute: compilers refuse to inline
//     target-specific always_inline ops into a function compiled for a
//     lesser target, and it is what makes the AVX2 copy VEX-encoded.
// A new kernel (say, an owned exp) therefore costs a scalar port, one
// vector body, and whatever ops the op sets still lack.
//
// The parity contract every implementation obeys:
//   * vectorize only across *independent* output elements (columns of
//     one output row, elements of one elementwise array) — never across
//     the reduction dimension. Register blocking follows the same rule:
//     DenseRowsMatMul keeps a block of rows x columns of accumulators
//     live at once, but each one is still its own chain of adds;
//   * keep each output element's terms in the canonical ascending-p
//     accumulation order, one add at a time;
//   * use separate multiply and add instructions (the SIMD translation
//     unit is compiled with -ffp-contract=off and the target attributes
//     deliberately exclude "fma", so no fused-multiply-add can be
//     emitted).
// Under round-to-nearest, lane l of a mulps/addps pair computes exactly
// what the scalar mulss/addss pair computes on element l, so every tier
// is bit-for-bit identical to the scalar reference (simd_parity_test
// pins this on ragged shapes, denormals, and ±inf/NaN inputs).
//
// Transcendentals: tanh is owned. TanhRow is a port of the fdlibm
// tanhf (and its expm1f) that glibc ships, computed branch-free lane by
// lane on the vector tiers, so it is bitwise the same on every tier and
// every host (tools/tanh_sweep checks all 2^32 inputs). exp is still
// libm: sigmoid and softmax call std::exp, and glibc's expf is an FMA
// IFUNC on FMA hosts, so owning it would change bytes there.
//
// Kernels write straight into the caller's destination rows (strided
// where the caller packs several results side by side) and allocate
// nothing: the encode fast path relies on that to keep its n^2-sized
// products out of any per-thread scratch (docs/architecture.md,
// "Encode fast path").
//
// Overrides, in precedence order:
//   * M2G_SIMD environment variable, read once at first kernel use:
//     "off"/"scalar", "sse2", "avx2", or "auto" (the default). Requests
//     above the detected tier clamp down with a warning.
//   * SetTier() — used by the parity tests to force a tier at runtime.
// The active tier is exported as the tensor.simd_tier gauge (detected
// tier as tensor.simd_tier_detected) and surfaces in /healthz and wide
// events via the serving layer.
// ---------------------------------------------------------------------------

/// Dispatch tiers, ordered: a higher tier strictly extends the ISA of
/// the lower ones. The numeric values are what the tensor.simd_tier
/// gauge exports.
enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Best tier this CPU supports (CPUID, cached). Always kScalar on
/// non-x86 builds.
Tier DetectedTier();

/// The tier kernels currently dispatch to (after env/config overrides).
Tier ActiveTier();

/// Forces the dispatch tier, clamped to DetectedTier() (requesting AVX2
/// on an SSE2-only host selects SSE2). Thread-safe; outputs are
/// bitwise-identical across tiers, so switching mid-run is harmless.
void SetTier(Tier tier);

/// Maps "off"/"scalar" -> kScalar, "sse2" -> kSse2, "avx2" -> kAvx2
/// (case-sensitive, as the M2G_SIMD values documented above). Returns
/// false — leaving *out untouched — for anything else, including "auto".
bool ParseTierName(const char* name, Tier* out);

/// "scalar", "sse2", or "avx2".
const char* TierName(Tier tier);

// --- Dispatched kernels -----------------------------------------------------
// These are the vector-width-sensitive inner loops; most callable
// entry points the rest of the library uses (AccumulateRowMatMul,
// GatLogitsRow, AffineRaw, ...) live in tensor/matrix.h and forward
// here. Callers, not these kernels, own path selection: DenseRowMatMul
// is only reached after the zero-scan chose the dense path, and
// DenseRowsMatMul has no zero-scan at all (see its comment).

/// out_row[j] += sum_p x[p] * b[p*m + j], terms in ascending-p order per
/// output element, no zero-skip (the caller's zero-scan guaranteed the
/// scanned prefix is zero-free; any unscanned zero contributes a ±0.0
/// term, which is bitwise-neutral — see AccumulateRowMatMul).
void DenseRowMatMul(const float* x, int k, const float* b, int m,
                    float* out_row);

/// out[r*ldo + c] = sum_p a[r*lda + p] * b[p*m + c] for r < rows, c < m:
/// each output element starts from +0.0 and adds its k terms in
/// ascending p, one multiply and one add per term — per row, exactly
/// zeroing out_row and calling DenseRowMatMul (the scalar tier is
/// literally that). The vector tiers hold a block of up to 4 rows times
/// a 16-lane (AVX2) or 8-lane (SSE2) column panel in registers across
/// the whole p loop, then narrower panels and scalar columns for the
/// ragged edges, so one pass over a b row feeds several a rows. b is
/// (k, m) row-major; out may be a strided slice of a wider buffer
/// (ldo >= m), and is written, never read.
///
/// There is no zero-scan: an exact zero in a contributes a +/-0.0 term
/// where AccumulateRowMatMul would skip it. That is bitwise-neutral
/// here: under round-to-nearest adding +/-0.0 changes no accumulator
/// except -0.0, and an accumulator that starts at +0.0 can never reach
/// -0.0 (only (-0) + (-0) gives -0); 0 * b is +/-0.0 for finite b, and
/// model weights are finite (nn::LoadModule rejects anything else). So
/// with finite b this equals a zeroed row run through
/// AccumulateRowMatMul, byte for byte (simd_parity_test pins it, with
/// zeros, denormals and +/-inf/NaN in a).
void DenseRowsMatMul(const float* a, int rows, int lda, int k,
                     const float* b, int m, float* out, int ldo);

/// logits[j] = LeakyRelu((s_dst[j] + s_edge_row[j]) + s_src_i), the
/// GAT-e attention-logit row (tensor/matrix.h GatLogitsRow forwards
/// here). The vector form selects pre > 0 ? pre : slope * pre per lane
/// with a compare + blend, matching the scalar ternary bit for bit
/// (NaN compares false and propagates through slope * pre, exactly as
/// the scalar branch does).
void GatLogitsRow(const float* s_dst, const float* s_edge_row, float s_src_i,
                  float slope, int n, float* logits);

/// a[i] += b[i] for n independent elements (Matrix::AddInPlace, the
/// row-broadcast bias adds, and the LSTM gate pre-activation block).
void AddInPlace(float* a, const float* b, size_t n);

/// a[i] = a[i] > 0 ? a[i] : 0.0f for n independent elements (the fused
/// activation tail of AffineRaw). The vector form ands the input with
/// its a > 0 compare mask: false lanes (including NaN and -0.0) become
/// +0.0, exactly the scalar ternary's 0.0f.
void ReluInPlace(float* a, size_t n);

/// y[i] = tanh(x[i]) for n independent elements, bitwise the fdlibm
/// tanhf that glibc (through at least 2.36) ships: the scalar tier is a
/// port of s_tanhf.c + s_expm1f.c, one float operation per source
/// operation, and the vector tiers compute every branch of that port
/// lane by lane and select each lane's branch with compare masks (one
/// divide for the final z step: (|x| >= 1 ? 2 : -t) / (t + 2)). So the
/// result is the same on every tier and every host, whatever its libm.
/// ±0, denormals, ±inf and NaN payloads included. y may alias x.
void TanhRow(const float* x, float* y, int n);

/// The fused GAT-e encode's Eq. 23/25 edge epilogue for one edge pair and
/// head: dst[c] = ReLU(ew3[c] + (nw4_row[c] + nw5_row[c])) for c < dh, in
/// that association order (the autograd Add chain's), then, when `sum`
/// is non-null, sum[c] += dst[c] (the last layer's head accumulation).
/// The vector form's ReLU ands v with its v > 0 compare mask, as
/// ReluInPlace does, so -0.0 and NaN become +0.0 like the scalar
/// ternary. `ew3` may alias `dst` (each element is read before it is
/// stored); `sum` must not overlap `dst`.
void GatEdgeRelu(const float* ew3, const float* nw4_row, const float* nw5_row,
                 int dh, float* dst, float* sum);

}  // namespace m2g::simd

#endif  // M2G_TENSOR_SIMD_H_
