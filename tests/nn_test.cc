#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace m2g::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Constant(Matrix::Ones(2, 4));
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 3);
  // Both rows identical for identical inputs.
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y.value().At(0, c), y.value().At(1, c));
  }
}

TEST(LinearTest, NoBiasVariantHasFewerParams) {
  Rng rng(2);
  Linear with_bias(4, 3, &rng, true);
  Linear no_bias(4, 3, &rng, false);
  EXPECT_EQ(with_bias.ParameterCount(), 4 * 3 + 3);
  EXPECT_EQ(no_bias.ParameterCount(), 4 * 3);
}

TEST(EmbeddingTest, LookupMatchesTableRows) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor rows = emb.Forward({7, 2, 7});
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.cols(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.value().At(0, c), rows.value().At(2, c));
  }
}

TEST(EmbeddingTest, OutOfRangeIdsClamp) {
  Rng rng(4);
  Embedding emb(5, 3, &rng);
  Tensor low = emb.Forward({-3});
  Tensor zero = emb.Forward({0});
  Tensor high = emb.Forward({99});
  Tensor last = emb.Forward({4});
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(low.value().At(0, c), zero.value().At(0, c));
    EXPECT_EQ(high.value().At(0, c), last.value().At(0, c));
  }
}

TEST(LstmCellTest, StateShapesAndBoundedOutputs) {
  Rng rng(5);
  LstmCell cell(6, 8, &rng);
  LstmState state = cell.InitialState();
  Tensor x = Tensor::Constant(Matrix::Ones(1, 6));
  for (int step = 0; step < 5; ++step) {
    state = cell.Forward(x, state);
    EXPECT_EQ(state.h.cols(), 8);
    // tanh-bounded hidden state.
    for (int c = 0; c < 8; ++c) {
      EXPECT_LE(std::fabs(state.h.value().At(0, c)), 1.0f);
    }
  }
}

TEST(LstmCellTest, GradientsFlowThroughTime) {
  Rng rng(6);
  LstmCell cell(3, 4, &rng);
  LstmState state = cell.InitialState();
  Tensor x = Tensor::Constant(Matrix::Ones(1, 3));
  for (int step = 0; step < 3; ++step) state = cell.Forward(x, state);
  Sum(state.h).Backward();
  for (const Tensor& p : cell.Parameters()) {
    ASSERT_TRUE(p.grad().SameShape(p.value()));
    EXPECT_GT(p.grad().MaxAbs(), 0.0f);
  }
}

TEST(MlpTest, DepthAndShapes) {
  Rng rng(7);
  Mlp mlp({5, 16, 16, 2}, &rng);
  EXPECT_EQ(mlp.in_features(), 5);
  EXPECT_EQ(mlp.out_features(), 2);
  Tensor y = mlp.Forward(Tensor::Constant(Matrix::Ones(3, 5)));
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
}

TEST(ModuleTest, NamedParametersArePrefixed) {
  Rng rng(8);
  Mlp mlp({2, 4, 1}, &rng);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);  // 2 layers x (weight, bias)
  EXPECT_EQ(named[0].first, "layer0/weight");
  EXPECT_EQ(named[3].first, "layer1/bias");
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  Tensor w = Tensor::Parameter(Matrix(1, 1, {5.0f}));
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Tensor loss = Mul(w, w);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamDescendsQuadraticWithOffset) {
  Tensor w = Tensor::Parameter(Matrix(1, 2, {4.0f, -3.0f}));
  Tensor target = Tensor::Constant(Matrix(1, 2, {1.0f, 2.0f}));
  Adam opt({w}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    opt.ZeroGrad();
    Tensor diff = Sub(w, target);
    Sum(Mul(diff, diff)).Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w.value()[1], 2.0f, 1e-2f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Tensor w = Tensor::Parameter(Matrix(1, 2, {0.0f, 0.0f}));
  Sgd opt({w}, 1.0f);
  opt.ZeroGrad();
  Sum(Scale(w, 100.0f)).Backward();  // grad = [100, 100], norm ~141.4
  const float before = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(before, 141.42f, 0.1f);
  const float norm_after = w.grad().Norm();
  EXPECT_NEAR(norm_after, 1.0f, 1e-3f);
}

TEST(OptimizerTest, MomentumAcceleratesOverPlainSgd) {
  auto run = [](float momentum) {
    Tensor w = Tensor::Parameter(Matrix(1, 1, {10.0f}));
    Sgd opt({w}, 0.01f, momentum);
    for (int i = 0; i < 50; ++i) {
      opt.ZeroGrad();
      Mul(w, w).Backward();
      opt.Step();
    }
    return std::fabs(w.value()[0]);
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(SerializeTest, RoundTripRestoresExactWeights) {
  Rng rng(9);
  Mlp a({3, 8, 2}, &rng);
  Mlp b({3, 8, 2}, &rng);  // different init
  const std::string path = ::testing::TempDir() + "/mlp_weights.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  ASSERT_TRUE(LoadModule(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t j = 0; j < pa[i].value().size(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(10);
  Mlp a({3, 8, 2}, &rng);
  Mlp wrong({3, 9, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/mlp_mismatch.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  Status s = LoadModule(&wrong, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchLeavesModuleUnchanged) {
  // The first layer's records match and the second's do not: a failed
  // load must not have assigned the matching ones either.
  Rng rng(12);
  Mlp a({3, 8, 2}, &rng);
  Mlp wrong({3, 8, 3}, &rng);
  const std::string path = ::testing::TempDir() + "/mlp_partial.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  std::vector<Matrix> before;
  for (const Tensor& p : wrong.Parameters()) before.push_back(p.value());
  EXPECT_FALSE(LoadModule(&wrong, path).ok());
  auto after = wrong.Parameters();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_TRUE(after[i].value().SameShape(before[i]));
    EXPECT_EQ(std::memcmp(after[i].value().data(), before[i].data(),
                          sizeof(float) * before[i].size()),
              0)
        << i;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, OversizedHeaderRejectedBeforeAllocating) {
  // 20-byte files claiming a 46341 x 46341 tensor (about 8 GB) and an
  // INT32_MAX x INT32_MAX one (whose byte count overflows 64 bits).
  const std::string path = ::testing::TempDir() + "/oversized.bin";
  for (uint32_t dim : {46341u, 0x7fffffffu}) {
    const uint32_t header[] = {0x4D324757u, 1u, 0u, dim, dim};
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
    std::fclose(f);
    Rng rng(13);
    Mlp a({2, 2}, &rng);
    EXPECT_EQ(LoadModule(&a, path).code(), StatusCode::kIoError) << dim;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, NonFiniteWeightRejected) {
  Rng rng(14);
  Mlp a({3, 4}, &rng);
  Mlp b({3, 4}, &rng);
  a.Parameters().front().node()->value[1] = std::nanf("");
  const std::string path = ::testing::TempDir() + "/nan_weights.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  const Matrix before = b.Parameters().front().value();
  const Status s = LoadModule(&b, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(std::memcmp(b.Parameters().front().value().data(), before.data(),
                        sizeof(float) * before.size()),
            0);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIoError) {
  Rng rng(11);
  Mlp a({2, 2}, &rng);
  Status s = LoadModule(&a, "/nonexistent/path/weights.bin");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(InitTest, XavierBoundsRespectFanInOut) {
  Rng rng(12);
  Matrix w = XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(w.MaxAbs(), bound + 1e-6f);
  EXPECT_GT(w.MaxAbs(), bound * 0.5f);  // actually fills the range
}

}  // namespace
}  // namespace m2g::nn
