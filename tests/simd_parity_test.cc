// Bitwise-parity suite for the runtime-dispatched SIMD kernel tier
// (tensor/simd.h): every vectorized kernel, on every tier this host
// supports, must produce byte-identical output to the scalar reference
// — on ragged shapes (k, m not multiples of the vector width), rows
// with exact zeros (both inside and beyond the zero-scan cap),
// denormals, and ±inf/NaN inputs. This is the contract the whole
// fast-path stack (encode/decode/serving/training) leans on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace m2g {
namespace {

/// Every tier the host can actually run (SetTier clamps, so requesting
/// an unsupported tier would silently retest a lower one — skip those).
std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::DetectedTier() >= simd::Tier::kSse2) {
    tiers.push_back(simd::Tier::kSse2);
  }
  if (simd::DetectedTier() >= simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

/// Restores the dispatch tier after each test so ordering within this
/// binary (and any suite run after it) is tier-neutral.
class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = simd::ActiveTier(); }
  void TearDown() override { simd::SetTier(entry_tier_); }

 private:
  simd::Tier entry_tier_ = simd::Tier::kScalar;
};

/// Runs `fn` (filling `out`) under every supported tier and asserts the
/// bytes match the scalar tier's exactly.
template <typename Fn>
void ExpectTierParity(Fn&& fn, const char* what) {
  simd::SetTier(simd::Tier::kScalar);
  const std::vector<float> want = fn();
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    ASSERT_EQ(simd::ActiveTier(), tier);
    const std::vector<float> got = fn();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
        << what << " diverges on tier " << simd::TierName(tier);
  }
}

/// The skip-if-zero ascending-p reference AccumulateRowMatMul is
/// specified against (the pre-fast-path op composition).
void ReferenceRow(const float* x, int k, const float* b, int m,
                  float* out_row) {
  for (int p = 0; p < k; ++p) {
    if (x[p] == 0.0f) continue;
    for (int j = 0; j < m; ++j) {
      out_row[j] += x[p] * b[static_cast<size_t>(p) * m + j];
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulRaggedShapes) {
  Rng rng(7001);
  // Straddles the 4-wide p-unroll, the 4- and 8-wide j vectors, and the
  // 16-entry zero-scan cap.
  for (int k : {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 48, 65}) {
    for (int m : {4, 5, 7, 8, 9, 12, 16, 47, 48, 49}) {
      Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);  // zero-free
      const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
      ExpectTierParity(
          [&] {
            std::vector<float> out(m, 0.0f);
            AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
            return out;
          },
          "AccumulateRowMatMul dense");
      // And against the skip reference (no zeros, so skip == include).
      std::vector<float> got(m, 0.0f), want(m, 0.0f);
      AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
      ReferenceRow(x.data(), k, b.data(), m, want.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
          << "k=" << k << " m=" << m;
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulZeroRowsTakeSparsePathOnEveryTier) {
  Rng rng(7002);
  for (int k : {4, 16, 33}) {
    const int m = 9;
    Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
    x.At(0, 0) = 0.0f;  // zero inside the scan prefix -> branchy path
    if (k > 2) x.At(0, k / 2) = 0.0f;
    const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    ExpectTierParity(
        [&] {
          std::vector<float> out(m, 0.25f);
          AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
          return out;
        },
        "AccumulateRowMatMul sparse");
    std::vector<float> got(m, 0.25f), want(m, 0.25f);
    AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
    ReferenceRow(x.data(), k, b.data(), m, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0);
  }
}

TEST_F(SimdParityTest, DenseRowMatMulZeroBeyondScanCapStaysBitwiseNeutral) {
  // A zero past the 16-entry scan cap reaches the dense kernel, which
  // adds a +/-0.0 term instead of skipping — the capped-scan parity
  // argument says that is invisible. Pin it against the skip reference
  // on every tier, with both +0.0 and -0.0 hidden zeros.
  Rng rng(7003);
  const int k = 40, m = 17;
  for (float hidden_zero : {0.0f, -0.0f}) {
    Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
    x.At(0, 20) = hidden_zero;
    x.At(0, k - 1) = hidden_zero;
    const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    simd::SetTier(simd::Tier::kScalar);
    std::vector<float> want(m, 0.0f);
    ReferenceRow(x.data(), k, b.data(), m, want.data());
    for (simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      std::vector<float> got(m, 0.0f);
      AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)), 0)
          << "tier " << simd::TierName(tier) << " zero "
          << (std::signbit(hidden_zero) ? "-0" : "+0");
    }
  }
}

TEST_F(SimdParityTest, ZeroRunPatternsMatchSkipReferenceOnEveryTier) {
  // Rows with zeros in the scan prefix take the skip path, which hands
  // each maximal run of nonzero entries to the dense kernel. Every run
  // shape must reproduce the skip reference byte for byte on every tier:
  // alternating zeros, a lone zero at p = 0, and nonzero and zero runs
  // of length 1-5. The b rows under zero entries hold inf, so a zero
  // term that is not skipped turns the output into NaN.
  Rng rng(7005);
  for (int m : {4, 12, 13, 48}) {
    for (int k : {5, 17, 48}) {
      std::vector<std::vector<bool>> patterns;  // true = zero at p
      std::vector<bool> alternating(k), first(k, false);
      for (int p = 0; p < k; ++p) alternating[p] = p % 2 == 0;
      first[0] = true;
      patterns.push_back(alternating);
      patterns.push_back(first);
      for (int len = 1; len <= 5; ++len) {
        std::vector<bool> nonzero_runs(k), zero_runs(k);
        for (int p = 0; p < k; ++p) {
          nonzero_runs[p] = p % (len + 1) == 0;  // runs of len nonzeros
          zero_runs[p] = p % (len + 1) != len;   // runs of len zeros
        }
        patterns.push_back(nonzero_runs);
        patterns.push_back(zero_runs);
      }
      for (const std::vector<bool>& zero : patterns) {
        Matrix x = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
        Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
        for (int p = 0; p < k; ++p) {
          if (!zero[p]) continue;
          x[p] = (p % 3 == 0) ? -0.0f : 0.0f;
          for (int j = 0; j < m; ++j) {
            b.At(p, j) = std::numeric_limits<float>::infinity();
          }
        }
        std::vector<float> want(m, 0.5f);
        ReferenceRow(x.data(), k, b.data(), m, want.data());
        for (simd::Tier tier : SupportedTiers()) {
          simd::SetTier(tier);
          std::vector<float> got(m, 0.5f);
          AccumulateRowMatMul(x.data(), k, b.data(), m, got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(float)),
                    0)
              << "tier " << simd::TierName(tier) << " m=" << m
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, DenseRowMatMulDenormals) {
  // Denormal operands and products: no tier may flush to zero (the
  // library never touches MXCSR, so FTZ/DAZ stay off).
  const int k = 8, m = 11;
  std::vector<float> x(k), b(static_cast<size_t>(k) * m);
  Rng rng(7004);
  for (int p = 0; p < k; ++p) {
    x[p] = (p % 2 == 0) ? FLT_MIN / 4.0f
                        : static_cast<float>(rng.Uniform(0.5, 1.0));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = (i % 3 == 0) ? FLT_MIN * 2.0f
                        : static_cast<float>(rng.Uniform(-1.0, 1.0)) *
                              FLT_MIN;
  }
  ExpectTierParity(
      [&] {
        std::vector<float> out(m, 0.0f);
        AccumulateRowMatMul(x.data(), k, b.data(), m, out.data());
        return out;
      },
      "AccumulateRowMatMul denormal");
}

TEST_F(SimdParityTest, DenseRowsMatMulMatchesPerRowReferenceOnEveryTier) {
  // The row-blocked multi-row product behind the GAT-e edge products,
  // against each row zeroed and run through AccumulateRowMatMul: ragged
  // row blocks (1-9 rows), every column-panel remainder (m = 24 takes
  // AVX2's 8-lane panel after a 16-lane one; m = 61 takes every panel
  // width and a scalar column), strided a and out (out's gap columns
  // must stay untouched), and rows carrying what dropping the zero-scan
  // could expose — zeros inside and beyond the 16-entry scan cap, -0.0,
  // denormals, +/-inf and NaN. Each row holds at most one kind of
  // nonfinite input, so no output element meets two NaNs with different
  // payloads.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sentinel = 7.5f;
  Rng rng(7011);
  for (int k : {5, 17, 48}) {
    for (int rows = 1; rows <= 9; ++rows) {
      for (int m : {1, 4, 12, 13, 24, 48, 49, 52, 61}) {
        const int lda = k + 3, ldo = m + 5;
        Matrix a = Matrix::Random(rows, lda, -1.0f, 1.0f, &rng);
        Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
        b.At(k - 1, 0) = FLT_MIN / 8.0f;  // a denormal weight
        for (int r = 0; r < rows; ++r) {
          switch (r % 8) {
            case 1:  // zeros inside the scan prefix: the skip path
              a.At(r, 0) = 0.0f;
              a.At(r, k / 2) = -0.0f;
              break;
            case 2:  // zeros only past the scan cap: the dense path
              a.At(r, k - 1) = 0.0f;
              a.At(r, std::min(20, k - 1)) = -0.0f;
              break;
            case 3:  // denormal activations
              for (int p = 0; p < k; p += 2) a.At(r, p) = FLT_MIN / 4.0f;
              break;
            case 4:
              a.At(r, k / 3) = inf;
              a.At(r, k - 1) = 0.0f;
              break;
            case 5:
              a.At(r, k / 2) = -inf;
              break;
            case 6:
              a.At(r, 0) = nan;
              a.At(r, k - 1) = -0.0f;
              break;
            default:  // dense
              break;
          }
        }
        simd::SetTier(simd::Tier::kScalar);
        std::vector<float> want(static_cast<size_t>(rows) * ldo, sentinel);
        for (int r = 0; r < rows; ++r) {
          float* row = want.data() + static_cast<size_t>(r) * ldo;
          std::fill(row, row + m, 0.0f);
          AccumulateRowMatMul(a.data() + static_cast<size_t>(r) * lda, k,
                              b.data(), m, row);
        }
        for (simd::Tier tier : SupportedTiers()) {
          simd::SetTier(tier);
          std::vector<float> got(want.size(), sentinel);
          simd::DenseRowsMatMul(a.data(), rows, lda, k, b.data(), m,
                                got.data(), ldo);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "tier " << simd::TierName(tier) << " rows=" << rows
              << " k=" << k << " m=" << m;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, GatLogitsRowInfAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int n : {1, 3, 7, 8, 9, 16, 50, 51}) {
    std::vector<float> s_dst(n), s_edge(n);
    Rng rng(7005);
    for (int j = 0; j < n; ++j) {
      s_dst[j] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      s_edge[j] = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    if (n >= 4) {
      s_dst[0] = inf;
      s_dst[1] = -inf;
      s_edge[2] = nan;
      s_edge[3] = -inf;  // may meet +inf in s_dst -> NaN pre-activation
    }
    ExpectTierParity(
        [&] {
          std::vector<float> logits(n, 0.0f);
          GatLogitsRow(s_dst.data(), s_edge.data(), 0.37f, 0.2f, n,
                       logits.data());
          return logits;
        },
        "GatLogitsRow");
  }
}

TEST_F(SimdParityTest, AffineRawReluEdgeCases) {
  // AffineRaw composes the dense row kernel, the bias row add, and the
  // ReLU sweep — all dispatched. Negative zeros in the bias force
  // exact-zero pre-activations through the ReLU select.
  Rng rng(7006);
  for (int m : {5, 8, 13, 48}) {
    const int n = 7, k = 19;
    const Matrix x = Matrix::Random(n, k, 0.05f, 1.0f, &rng);
    const Matrix w = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
    Matrix bias = Matrix::Random(1, m, -0.5f, 0.5f, &rng);
    bias.At(0, 0) = -0.0f;
    ExpectTierParity(
        [&] {
          const Matrix out = AffineRaw(x, w, &bias, Activation::kRelu);
          return std::vector<float>(out.data(), out.data() + out.size());
        },
        "AffineRaw+ReLU");
  }
}

TEST_F(SimdParityTest, DualAffineRawAcrossTiers) {
  Rng rng(7007);
  const int batch = 3, in = 10, hidden = 13;
  const Matrix x = Matrix::Random(batch, in, -1.0f, 1.0f, &rng);
  const Matrix wx = Matrix::Random(in, 4 * hidden, -1.0f, 1.0f, &rng);
  const Matrix h = Matrix::Random(batch, hidden, -1.0f, 1.0f, &rng);
  const Matrix wh = Matrix::Random(hidden, 4 * hidden, -1.0f, 1.0f, &rng);
  const Matrix bias = Matrix::Random(1, 4 * hidden, -1.0f, 1.0f, &rng);
  ExpectTierParity(
      [&] {
        const Matrix out = DualAffineRaw(x, wx, h, wh, bias);
        return std::vector<float>(out.data(), out.data() + out.size());
      },
      "DualAffineRaw");
}

TEST_F(SimdParityTest, MatMulIntoMixedHeightsAcrossTiers) {
  Rng rng(7008);
  const int k = 21, m = 18;
  const Matrix b = Matrix::Random(k, m, -1.0f, 1.0f, &rng);
  const Matrix a0 = Matrix::Random(5, k, 0.1f, 1.0f, &rng);
  const Matrix a1 = Matrix::Random(1, k, 0.1f, 1.0f, &rng);
  const Matrix a2 = Matrix::Random(9, k, 0.1f, 1.0f, &rng);
  ExpectTierParity(
      [&] {
        std::vector<float> all;
        for (const Matrix* a : {&a0, &a1, &a2}) {
          std::vector<float> o(static_cast<size_t>(a->rows()) * m);
          MatMulInto(a->data(), a->rows(), k, b.data(), m, o.data());
          all.insert(all.end(), o.begin(), o.end());
        }
        return all;
      },
      "MatMulInto");
}

TEST_F(SimdParityTest, TransposedMatMulsMatchUnfusedReferenceAcrossTiers) {
  Rng rng(7009);
  // Shapes from the autograd backward passes that call these. Zeros in
  // `a` exercise the sparse/dense selection inside the row kernel.
  Matrix a = Matrix::Random(17, 9, -1.0f, 1.0f, &rng);
  a.At(3, 0) = 0.0f;
  const Matrix b = Matrix::Random(17, 12, -1.0f, 1.0f, &rng);
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    const Matrix atb = MatMulATB(a, b);
    const Matrix atb_ref = MatMulRaw(TransposeRaw(a), b);
    ASSERT_TRUE(atb.SameShape(atb_ref));
    EXPECT_EQ(std::memcmp(atb.data(), atb_ref.data(),
                          atb.size() * sizeof(float)),
              0)
        << "MatMulATB tier " << simd::TierName(tier);
  }
}

// MatMul's backward forms g * w^T as MatMulRaw(g, TransposeRaw(w)), with
// w^T from the per-Backward transpose cache (internal::TransposedValue)
// when w is a parameter leaf. This pins what any reuse of that cache
// must keep: a leaf used by two MatMul nodes of one graph (the second
// use reads the cache) gives each input exactly that product, and a
// Backward after the leaf's value changes, as an optimizer step changes
// it, transposes the new value.
TEST_F(SimdParityTest, MatMulBackwardTransposesTheCurrentWeight) {
  Rng rng(7012);
  const int n = 5, k = 17, m = 12;
  Tensor w = Tensor::Parameter(Matrix::Random(k, m, -1.0f, 1.0f, &rng));
  Tensor x1 = Tensor::Parameter(Matrix::Random(n, k, -1.0f, 1.0f, &rng));
  Tensor x2 = Tensor::Parameter(Matrix::Random(n + 2, k, -1.0f, 1.0f, &rng));
  // Sum(Mul(y, g)) hands each product exactly g as its upstream grad; a
  // zero in g1 exercises the row kernel's sparse path.
  Matrix g1 = Matrix::Random(n, m, -1.0f, 1.0f, &rng);
  g1.At(1, 0) = 0.0f;
  const Matrix g2 = Matrix::Random(n + 2, m, -1.0f, 1.0f, &rng);
  const auto expect_grad = [](const Tensor& x, const Matrix& want,
                              const char* what) {
    ASSERT_TRUE(x.grad().SameShape(want)) << what;
    EXPECT_EQ(std::memcmp(x.grad().data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what;
  };
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE(::testing::Message()
                   << "tier " << simd::TierName(tier) << " pass " << pass);
      if (pass == 1) {
        w.mutable_value().AddInPlace(Matrix::Random(k, m, -1, 1, &rng));
      }
      for (const Tensor* t : {&w, &x1, &x2}) t->ZeroGrad();
      Add(Sum(Mul(MatMul(x1, w), Tensor::Constant(g1))),
          Sum(Mul(MatMul(x2, w), Tensor::Constant(g2))))
          .Backward();
      const Matrix wt = TransposeRaw(w.value());
      expect_grad(x1, MatMulRaw(g1, wt), "first use");
      expect_grad(x2, MatMulRaw(g2, wt), "second use");
    }
  }
}

TEST_F(SimdParityTest, ElementwiseKernelsAcrossTiers) {
  Rng rng(7010);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int n : {1, 3, 4, 7, 8, 9, 33, 100}) {
    Matrix a = Matrix::Random(1, n, -1.0f, 1.0f, &rng);
    Matrix b = Matrix::Random(1, n, -1.0f, 1.0f, &rng);
    if (n >= 4) {
      a.At(0, 0) = -0.0f;
      a.At(0, 1) = FLT_MIN / 8.0f;
      b.At(0, 2) = inf;
      b.At(0, 3) = nan;
    }
    ExpectTierParity(
        [&] {
          Matrix sum = a;
          sum.AddInPlace(b);
          return std::vector<float>(sum.data(), sum.data() + sum.size());
        },
        "AddInPlace");
    ExpectTierParity(
        [&] {
          std::vector<float> v(b.data(), b.data() + b.size());
          simd::ReluInPlace(v.data(), v.size());
          return v;
        },
        "ReluInPlace");
  }
}

TEST_F(SimdParityTest, GatEdgeReluAcrossTiers) {
  // The GAT-e edge epilogue on the vector widths and their tails (dh =
  // 12 takes AVX2's 4-lane step, 13 one more scalar column), with and
  // without the head sum, with ew3 aliasing dst, and with inputs holding
  // +/-0.0, denormals, +/-inf and NaN (-0.0 sums and NaN lanes must come
  // out +0.0, as the scalar ternary gives).
  Rng rng(7011);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f,  -0.0f, FLT_MIN / 8.0f, -FLT_MIN / 8.0f,
                            inf,   -inf,  nan,            -0.0f};
  constexpr int kSpecials = sizeof(specials) / sizeof(specials[0]);
  for (int dh : {1, 3, 4, 7, 12, 13, 48}) {
    Matrix ew3 = Matrix::Random(1, dh, -1.0f, 1.0f, &rng);
    Matrix nw4 = Matrix::Random(1, dh, -1.0f, 1.0f, &rng);
    Matrix nw5 = Matrix::Random(1, dh, -1.0f, 1.0f, &rng);
    Matrix sum0 = Matrix::Random(1, dh, -1.0f, 1.0f, &rng);
    for (int c = 0; c < dh; ++c) {
      if (c % 3 == 0) ew3[c] = specials[c % kSpecials];
      if (c % 4 == 1) nw4[c] = specials[(c + 3) % kSpecials];
      if (c % 5 == 2) nw5[c] = specials[(c + 5) % kSpecials];
      if (c % 6 == 5) sum0[c] = specials[(c + 1) % kSpecials];
    }
    // An all -0.0 column: ReLU(-0.0 + (-0.0 + -0.0)) is +0.0.
    ew3[dh - 1] = nw4[dh - 1] = nw5[dh - 1] = -0.0f;
    for (bool with_sum : {false, true}) {
      for (bool aliased : {false, true}) {
        auto run = [&] {
          std::vector<float> dst(dh, 7.0f);
          std::vector<float> sum(sum0.data(), sum0.data() + dh);
          const float* in = ew3.data();
          if (aliased) {
            std::copy(ew3.data(), ew3.data() + dh, dst.begin());
            in = dst.data();
          }
          simd::GatEdgeRelu(in, nw4.data(), nw5.data(), dh, dst.data(),
                            with_sum ? sum.data() : nullptr);
          dst.insert(dst.end(), sum.begin(), sum.end());
          return dst;
        };
        ExpectTierParity(run, with_sum ? (aliased ? "GatEdgeRelu sum alias"
                                                  : "GatEdgeRelu sum")
                                       : (aliased ? "GatEdgeRelu alias"
                                                  : "GatEdgeRelu"));
        // The scalar tier is the epilogue as the autograd Add chain and
        // Relu op compute it.
        simd::SetTier(simd::Tier::kScalar);
        const std::vector<float> got = run();
        std::vector<float> want(sum0.data(), sum0.data() + dh);
        want.insert(want.begin(), dh, 0.0f);
        for (int c = 0; c < dh; ++c) {
          const float v = ew3[c] + (nw4[c] + nw5[c]);
          want[c] = v > 0.0f ? v : 0.0f;
          if (with_sum) want[dh + c] += want[c];
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "dh=" << dh << " sum=" << with_sum << " alias=" << aliased;
      }
    }
  }
}

/// {input bits, glibc 2.36 tanhf output bits}.
struct TanhGolden {
  uint32_t in;
  uint32_t out;
};
constexpr TanhGolden kTanhGolden[] = {
#include "tanh_glibc_table.inc"
};

std::vector<float> FloatsFromBits(const std::vector<uint32_t>& bits) {
  std::vector<float> out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    out[i] = std::bit_cast<float>(bits[i]);
  }
  return out;
}

/// TanhRow of `x` on the active tier, in place, as a fresh vector.
std::vector<float> TanhOf(const std::vector<float>& x) {
  std::vector<float> y = x;
  simd::TanhRow(y.data(), y.data(), static_cast<int>(y.size()));
  return y;
}

TEST_F(SimdParityTest, TanhScalarPortMatchesGlibcTableOnEveryTier) {
  std::vector<uint32_t> in_bits;
  for (const TanhGolden& g : kTanhGolden) in_bits.push_back(g.in);
  const std::vector<float> x = FloatsFromBits(in_bits);
  for (simd::Tier tier : SupportedTiers()) {
    simd::SetTier(tier);
    // Out of place here (in place is covered below).
    std::vector<float> y(x.size());
    simd::TanhRow(x.data(), y.data(), static_cast<int>(x.size()));
    int wrong = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const uint32_t got = std::bit_cast<uint32_t>(y[i]);
      if (got == kTanhGolden[i].out) continue;
      if (++wrong <= 5) {
        ADD_FAILURE() << simd::TierName(tier) << ": tanh(0x" << std::hex
                      << kTanhGolden[i].in << ") = 0x" << got
                      << ", glibc 0x" << kTanhGolden[i].out;
      }
    }
    EXPECT_EQ(wrong, 0) << simd::TierName(tier);
  }
}

TEST_F(SimdParityTest, TanhBranchBoundariesAndSpecialsAcrossTiers) {
  // Branch thresholds of tanhf (2^-55, 1, 22) and of expm1f (2^-25,
  // 0.5 ln2, 1.5 ln2, 27 ln2), each as |x| and as |x|/2 (expm1f sees
  // 2|x|), +-1 ulp, both signs.
  std::vector<uint32_t> bits;
  for (uint32_t b : {0x24000000u, 0x33000000u, 0x3eb17218u, 0x3f800000u,
                     0x3f851592u, 0x41b00000u, 0x4195b844u}) {
    for (uint32_t base : {b, b - 0x00800000u}) {
      for (uint32_t v : {base - 1, base, base + 1}) {
        bits.push_back(v);
        bits.push_back(v | 0x80000000u);
      }
    }
  }
  // +-0, denormals, FLT_MIN, FLT_MAX, +-inf, quiet and signalling NaNs
  // with payloads.
  for (uint32_t v : {0x00000000u, 0x00000001u, 0x00400000u, 0x007fffffu,
                     0x00800000u, 0x7f7fffffu, 0x7f800000u, 0x7f800001u,
                     0x7fa00000u, 0x7fc00000u, 0x7fd23456u, 0x7fffffffu}) {
    bits.push_back(v);
    bits.push_back(v | 0x80000000u);
  }
  const std::vector<float> x = FloatsFromBits(bits);
  ExpectTierParity([&] { return TanhOf(x); }, "TanhRow specials");
}

TEST_F(SimdParityTest, TanhSampledSweepAcrossTiers) {
  // About 1M bit patterns at a fixed odd stride: every exponent, both
  // signs, NaN and inf included.
  constexpr uint32_t kStride = 4099;
  std::vector<float> x;
  x.reserve((uint64_t{1} << 32) / kStride + 1);
  for (uint64_t v = 0; v < (uint64_t{1} << 32); v += kStride) {
    x.push_back(std::bit_cast<float>(static_cast<uint32_t>(v)));
  }
  ExpectTierParity([&] { return TanhOf(x); }, "TanhRow sweep");
  // The scalar port over the same inputs, pinned to glibc 2.36's tanhf
  // by the FNV-1a hash of the output bytes (a table this size would not
  // be readable): a wrong operation that shifts a few outputs in ten
  // thousand still changes the hash.
  simd::SetTier(simd::Tier::kScalar);
  uint64_t hash = 1469598103934665603ull;
  for (float y : TanhOf(x)) {
    const uint32_t bits = std::bit_cast<uint32_t>(y);
    for (int i = 0; i < 4; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  EXPECT_EQ(x.size(), 1047809u);
  EXPECT_EQ(hash, 0x9b785dac4395d881ull);
}

TEST_F(SimdParityTest, TanhRaggedLengthsAcrossTiers) {
  // Lengths 1-17 cover every vector tail, starting at every offset of a
  // shared buffer (unaligned loads), in place and out of place.
  Rng rng(7012);
  const Matrix src = Matrix::Random(1, 40, -4.0f, 4.0f, &rng);
  for (int n = 1; n <= 17; ++n) {
    for (int offset : {0, 1, 3}) {
      const float* x = src.data() + offset;
      ExpectTierParity(
          [&] {
            std::vector<float> y(n + 2, -7.0f);
            simd::TanhRow(x, y.data() + 1, n);
            return y;  // y[0] and y[n+1] must keep their sentinel
          },
          "TanhRow ragged");
      ExpectTierParity(
          [&] { return TanhOf(std::vector<float>(x, x + n)); },
          "TanhRow ragged in place");
    }
  }
  simd::SetTier(simd::Tier::kScalar);
  std::vector<float> y(19, -7.0f);
  simd::TanhRow(src.data(), y.data() + 1, 17);
  EXPECT_EQ(y[0], -7.0f);
  EXPECT_EQ(y[18], -7.0f);
}

TEST_F(SimdParityTest, TierNamesParseAndClamp) {
  simd::Tier tier = simd::Tier::kAvx2;
  EXPECT_TRUE(simd::ParseTierName("off", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTierName("scalar", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  EXPECT_TRUE(simd::ParseTierName("sse2", &tier));
  EXPECT_EQ(tier, simd::Tier::kSse2);
  EXPECT_TRUE(simd::ParseTierName("avx2", &tier));
  EXPECT_EQ(tier, simd::Tier::kAvx2);
  EXPECT_FALSE(simd::ParseTierName("auto", &tier));
  EXPECT_FALSE(simd::ParseTierName("AVX512", &tier));
  EXPECT_FALSE(simd::ParseTierName(nullptr, &tier));

  // Requesting above the detected tier clamps instead of crashing on
  // unsupported instructions.
  simd::SetTier(simd::Tier::kAvx2);
  EXPECT_LE(simd::ActiveTier(), simd::DetectedTier());
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kSse2), "sse2");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

TEST_F(SimdParityTest, FixedSeedTrainingIsTierInvariant) {
  // The end-to-end guarantee the per-kernel pins add up to: a short
  // fixed-seed fit lands on byte-identical parameters whether the
  // kernels ran scalar or at the best tier this host offers.
  synth::DataConfig dc;
  dc.seed = 1212;
  dc.world.num_aois = 40;
  dc.couriers.num_couriers = 3;
  dc.num_days = 2;
  const synth::DatasetSplits splits = synth::BuildDataset(dc);

  core::ModelConfig mc;
  mc.hidden_dim = 16;
  mc.num_heads = 2;
  mc.num_layers = 1;
  mc.aoi_id_embed_dim = 4;
  mc.aoi_type_embed_dim = 2;
  mc.lstm_hidden_dim = 16;
  mc.courier_dim = 8;
  mc.pos_enc_dim = 4;

  auto fit_params = [&](simd::Tier tier) {
    simd::SetTier(tier);
    core::M2g4Rtp model(mc);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.early_stop_patience = 0;
    tc.max_samples_per_epoch = 8;
    core::Trainer trainer(&model, tc);
    trainer.Fit(splits.train, splits.val);
    std::vector<float> flat;
    for (const auto& [name, tensor] : model.NamedParameters()) {
      const Matrix& value = tensor.value();
      flat.insert(flat.end(), value.data(), value.data() + value.size());
    }
    return flat;
  };

  const std::vector<float> scalar_params = fit_params(simd::Tier::kScalar);
  const std::vector<float> best_params = fit_params(simd::DetectedTier());
  ASSERT_EQ(scalar_params.size(), best_params.size());
  EXPECT_EQ(std::memcmp(scalar_params.data(), best_params.data(),
                        scalar_params.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace m2g
