#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/ops.h"
#include "tests/oracles/ops.h"

namespace m2g {
namespace {

/// Numeric-vs-analytic gradient check. `fn` must rebuild the scalar loss
/// from scratch on every call (define-by-run).
void CheckGradients(const Tensor& param,
                    const std::function<Tensor()>& fn,
                    float eps = 1e-2f, float tol = 2e-2f) {
  Tensor loss = fn();
  param.ZeroGrad();
  loss.Backward();
  Matrix analytic = param.grad();
  ASSERT_TRUE(analytic.SameShape(param.value()));

  Matrix& w = param.node()->value;
  for (size_t i = 0; i < w.size(); ++i) {
    const float orig = w[i];
    w[i] = orig + eps;
    const float up = fn().item();
    w[i] = orig - eps;
    const float down = fn().item();
    w[i] = orig;
    const float numeric = (up - down) / (2 * eps);
    const float scale =
        std::max({1.0f, std::fabs(numeric), std::fabs(analytic[i])});
    EXPECT_NEAR(analytic[i], numeric, tol * scale)
        << "at flat index " << i;
  }
}

Tensor RandomParam(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Parameter(Matrix::Random(rows, cols, -1.0f, 1.0f, &rng));
}

TEST(AutogradTest, AddAndSum) {
  Tensor a = RandomParam(2, 3, 1);
  Tensor b = RandomParam(2, 3, 2);
  CheckGradients(a, [&] { return Sum(Add(a, b)); });
  CheckGradients(b, [&] { return Sum(Add(a, b)); });
}

TEST(AutogradTest, SubMulChain) {
  Tensor a = RandomParam(2, 2, 3);
  Tensor b = RandomParam(2, 2, 4);
  auto fn = [&] { return Sum(Mul(Sub(a, b), Add(a, b))); };
  CheckGradients(a, fn);
  CheckGradients(b, fn);
}

TEST(AutogradTest, MatMulBothSides) {
  Tensor a = RandomParam(3, 4, 5);
  Tensor b = RandomParam(4, 2, 6);
  auto fn = [&] { return Sum(MatMul(a, b)); };
  CheckGradients(a, fn);
  CheckGradients(b, fn);
}

TEST(AutogradTest, MatMulChainWithActivation) {
  Tensor a = RandomParam(2, 3, 7);
  Tensor b = RandomParam(3, 3, 8);
  auto fn = [&] { return Sum(Tanh(MatMul(a, b))); };
  CheckGradients(a, fn);
  CheckGradients(b, fn);
}

TEST(AutogradTest, AddRowBroadcast) {
  Tensor a = RandomParam(4, 3, 9);
  Tensor bias = RandomParam(1, 3, 10);
  auto fn = [&] { return Sum(Sigmoid(AddRowBroadcast(a, bias))); };
  CheckGradients(a, fn);
  CheckGradients(bias, fn);
}

TEST(AutogradTest, ScaleNegAddScalar) {
  Tensor a = RandomParam(2, 2, 11);
  CheckGradients(a, [&] { return Sum(AddScalar(Neg(Scale(a, 2.5f)), 1)); });
}

TEST(AutogradTest, Exp) {
  Rng rng(12);
  Tensor a =
      Tensor::Parameter(Matrix::Random(2, 3, 0.5f, 2.0f, &rng));
  CheckGradients(a, [&] { return Sum(Exp(a)); });
}

TEST(AutogradTest, AbsAwayFromKink) {
  Rng rng(13);
  Matrix init = Matrix::Random(2, 3, 0.5f, 2.0f, &rng);
  init.At(1, 1) = -1.5f;
  Tensor a = Tensor::Parameter(init);
  CheckGradients(a, [&] { return Sum(Abs(a)); });
}

TEST(AutogradTest, ActivationsGradcheck) {
  Tensor a = RandomParam(3, 3, 14);
  CheckGradients(a, [&] { return Sum(Sigmoid(a)); });
  CheckGradients(a, [&] { return Sum(Tanh(a)); });
  CheckGradients(a, [&] { return Sum(LeakyRelu(a, 0.2f)); });
}

TEST(AutogradTest, ConcatColsSplitsGradient) {
  Tensor a = RandomParam(2, 2, 15);
  Tensor b = RandomParam(2, 3, 16);
  auto fn = [&] { return Sum(Tanh(ConcatCols(a, b))); };
  CheckGradients(a, fn);
  CheckGradients(b, fn);
}

TEST(AutogradTest, ConcatRowsSplitsGradient) {
  Tensor a = RandomParam(1, 3, 17);
  Tensor b = RandomParam(2, 3, 18);
  auto fn = [&] { return Sum(Sigmoid(ConcatRows({a, b}))); };
  CheckGradients(a, fn);
  CheckGradients(b, fn);
}

TEST(AutogradTest, SliceColsAndRows) {
  Tensor a = RandomParam(3, 4, 19);
  CheckGradients(a, [&] { return Sum(Tanh(SliceCols(a, 1, 2))); });
  CheckGradients(a, [&] { return Sum(Tanh(SliceRows(a, 0, 2))); });
  CheckGradients(a, [&] { return Sum(Row(a, 2)); });
}

TEST(AutogradTest, GatherRowsWithDuplicates) {
  Tensor a = RandomParam(3, 2, 20);
  std::vector<int> idx = {0, 2, 0, 1};
  CheckGradients(a, [&] { return Sum(Tanh(GatherRows(a, idx))); });
}

TEST(AutogradTest, BroadcastRows) {
  Tensor a = RandomParam(1, 3, 21);
  CheckGradients(a, [&] { return Sum(Tanh(BroadcastRows(a, 4))); });
}

TEST(AutogradTest, MeanTranspose) {
  Tensor a = RandomParam(3, 4, 22);
  CheckGradients(a, [&] { return Mean(Mul(a, a)); });
  CheckGradients(a, [&] { return Sum(Tanh(Transpose(a))); });
}

TEST(AutogradTest, AddScalarTensor) {
  Tensor a = RandomParam(2, 3, 23);
  Tensor s = RandomParam(1, 1, 24);
  auto fn = [&] { return Sum(Tanh(AddScalarTensor(a, s))); };
  CheckGradients(a, fn);
  CheckGradients(s, fn);
}

TEST(AutogradTest, MaskedSoftmaxRowSumsToOne) {
  Tensor logits = RandomParam(1, 5, 25);
  std::vector<bool> mask = {true, false, true, true, false};
  Tensor p = MaskedSoftmaxRow(logits, mask);
  float total = 0;
  for (int i = 0; i < 5; ++i) {
    if (!mask[i]) {
      EXPECT_EQ(p.value()[i], 0.0f);
    }
    total += p.value()[i];
  }
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

TEST(AutogradTest, MaskedSoftmaxGradcheck) {
  Tensor logits = RandomParam(1, 4, 26);
  std::vector<bool> mask = {true, true, false, true};
  Tensor weights = Tensor::Constant(Matrix(1, 4, {0.3f, -1.2f, 9.f, 0.7f}));
  CheckGradients(logits, [&] {
    return Sum(Mul(MaskedSoftmaxRow(logits, mask), weights));
  });
}

TEST(AutogradTest, MaskedCrossEntropyMatchesManual) {
  Tensor logits = Tensor::Parameter(Matrix(1, 3, {1.0f, 2.0f, 3.0f}));
  std::vector<bool> mask = {true, true, true};
  Tensor loss = MaskedCrossEntropy(logits, 1, mask);
  // -log softmax(2 | {1,2,3}).
  const double z = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(loss.item(), -std::log(std::exp(2.0) / z), 1e-5);
}

TEST(AutogradTest, MaskedCrossEntropyGradcheck) {
  Tensor logits = RandomParam(1, 5, 27);
  std::vector<bool> mask = {true, false, true, true, true};
  CheckGradients(logits,
                 [&] { return MaskedCrossEntropy(logits, 3, mask); });
}

TEST(AutogradTest, MaskedCrossEntropyIgnoresMaskedLogits) {
  Matrix init(1, 3, {1.0f, 50.0f, 2.0f});
  Tensor logits = Tensor::Parameter(init);
  std::vector<bool> mask = {true, false, true};
  Tensor loss = MaskedCrossEntropy(logits, 2, mask);
  const double z = std::exp(1.0) + std::exp(2.0);
  EXPECT_NEAR(loss.item(), -std::log(std::exp(2.0) / z), 1e-4);
}

TEST(AutogradTest, L1LossValueAndGrad) {
  Tensor pred = Tensor::Parameter(Matrix(1, 1, {2.5f}));
  Tensor loss = L1Loss(pred, 1.0f);
  EXPECT_FLOAT_EQ(loss.item(), 1.5f);
  loss.Backward();
  EXPECT_FLOAT_EQ(pred.grad()[0], 1.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor a = Tensor::Parameter(Matrix(1, 1, {3.0f}));
  Sum(Scale(a, 2.0f)).Backward();
  Sum(Scale(a, 2.0f)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(AutogradTest, DiamondDependencyCountedOnce) {
  // loss = sum((a + a) * a) = 2 * sum(a^2); d/da = 4a.
  Tensor a = Tensor::Parameter(Matrix(1, 1, {3.0f}));
  Sum(Mul(Add(a, a), a)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 12.0f);
}

TEST(AutogradTest, NoGradIntoConstants) {
  Tensor c = Tensor::Constant(Matrix(1, 2, {1.0f, 2.0f}));
  Tensor a = RandomParam(1, 2, 28);
  Sum(Mul(a, c)).Backward();
  // Constant's grad buffer is never allocated.
  EXPECT_FALSE(c.grad().SameShape(c.value()));
}

TEST(AutogradTest, ArgmaxMaskedRow) {
  Matrix row(1, 4, {0.5f, 9.0f, 3.0f, 8.0f});
  EXPECT_EQ(ArgmaxMaskedRow(row, {true, true, true, true}), 1);
  EXPECT_EQ(ArgmaxMaskedRow(row, {true, false, true, true}), 3);
  EXPECT_EQ(ArgmaxMaskedRow(row, {true, false, true, false}), 2);
}

// Property-style sweep: random composite expressions must gradcheck.
class CompositeGradcheck : public ::testing::TestWithParam<int> {};

TEST_P(CompositeGradcheck, RandomExpression) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Tensor w1 = RandomParam(3, 3, seed * 31 + 1);
  Tensor w2 = RandomParam(3, 2, seed * 31 + 2);
  Tensor x = Tensor::Constant(
      [&] {
        Rng r(seed * 31 + 3);
        return Matrix::Random(2, 3, -1, 1, &r);
      }());
  auto fn = [&] {
    Tensor h = Tanh(MatMul(x, w1));
    Tensor y = Sigmoid(MatMul(h, w2));
    return Mean(Mul(y, y));
  };
  CheckGradients(w1, fn);
  CheckGradients(w2, fn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeGradcheck,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace m2g
