// Contract tests: programmer errors must fail fast and loudly via
// M2G_CHECK, never corrupt memory or return garbage.

#include <gtest/gtest.h>

#include "core/model.h"
#include "metrics/route_metrics.h"
#include "tensor/ops.h"
#include "tests/oracles/ops.h"

namespace m2g {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, MatrixAtOutOfRangeAborts) {
  // At() bounds checks are M2G_DCHECKs: they guard debug builds only and
  // compile out of the element-access hot path under -DNDEBUG.
#ifdef NDEBUG
  GTEST_SKIP() << "At() bounds checks compile out in release builds";
#else
  Matrix m(2, 2);
  EXPECT_DEATH(m.At(2, 0), "CHECK failed");
  EXPECT_DEATH(m.At(0, -1), "CHECK failed");
#endif
}

TEST(DeathTest, NullTensorAccessorsAbort) {
  Tensor t;  // default-constructed: no node
  EXPECT_DEATH(t.rows(), "null");
  EXPECT_DEATH(t.cols(), "null");
  EXPECT_DEATH(t.value(), "null");
  EXPECT_DEATH(t.mutable_value(), "null");
  EXPECT_DEATH(t.grad(), "null");
  EXPECT_DEATH(t.requires_grad(), "null");
  EXPECT_DEATH(t.item(), "null");
}

TEST(DeathTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH(MatMulRaw(a, b), "CHECK failed");
}

TEST(DeathTest, ElementwiseShapeMismatchAborts) {
  Tensor a = Tensor::Constant(Matrix(2, 3));
  Tensor b = Tensor::Constant(Matrix(3, 2));
  EXPECT_DEATH(Add(a, b), "CHECK failed");
  EXPECT_DEATH(Mul(a, b), "CHECK failed");
}

TEST(DeathTest, BackwardFromNonScalarAborts) {
  Tensor a = Tensor::Parameter(Matrix(2, 2));
  Tensor y = Scale(a, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(DeathTest, MaskedSoftmaxAllMaskedAborts) {
  Tensor logits = Tensor::Constant(Matrix(1, 3));
  std::vector<bool> none(3, false);
  EXPECT_DEATH(MaskedSoftmaxRow(logits, none), "masked");
}

TEST(DeathTest, CrossEntropyMaskedTargetAborts) {
  Tensor logits = Tensor::Constant(Matrix(1, 3));
  std::vector<bool> mask = {true, false, true};
  EXPECT_DEATH(MaskedCrossEntropy(logits, 1, mask), "masked");
}

TEST(DeathTest, ArgmaxAllMaskedAborts) {
  Matrix row(1, 2);
  EXPECT_DEATH(ArgmaxMaskedRow(row, {false, false}), "masked");
}

TEST(DeathTest, SliceOutOfRangeAborts) {
  Tensor a = Tensor::Constant(Matrix(2, 4));
  EXPECT_DEATH(SliceCols(a, 2, 3), "CHECK failed");
  EXPECT_DEATH(SliceRows(a, 1, 2), "CHECK failed");
}

TEST(DeathTest, InvalidModelConfigAborts) {
  core::ModelConfig bad;
  bad.hidden_dim = 30;
  bad.num_heads = 4;  // 30 % 4 != 0
  EXPECT_DEATH(core::M2g4Rtp model(bad), "divisible");
}

TEST(DeathTest, RngInvalidRangeAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(5, 3), "CHECK failed");
}

TEST(DeathTest, MetricsSizeMismatchAborts) {
  std::vector<int> a = {0, 1, 2};
  std::vector<int> b = {0, 1};
  EXPECT_DEATH(metrics::HitRate(a, b, 3), "CHECK failed");
  EXPECT_DEATH(metrics::KendallRankCorrelation(a, b), "CHECK failed");
}

TEST(DeathTest, MetricsRepeatedNodeAborts) {
  std::vector<int> dup = {0, 0, 1};
  std::vector<int> ok = {2, 1, 0};
  EXPECT_DEATH(metrics::KendallRankCorrelation(dup, ok), "repeats");
}

}  // namespace
}  // namespace m2g
