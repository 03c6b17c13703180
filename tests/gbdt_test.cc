#include <gtest/gtest.h>

#include <cmath>

#include "baselines/gbdt/booster.h"

namespace m2g::baselines::gbdt {
namespace {

/// y = 3*x0 - 2*x1 + noise over uniform features.
void MakeLinearData(int n, Matrix* x, std::vector<float>* y,
                    uint64_t seed, float noise = 0.0f) {
  Rng rng(seed);
  *x = Matrix(n, 3);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    const float a = static_cast<float>(rng.Uniform(-1, 1));
    const float b = static_cast<float>(rng.Uniform(-1, 1));
    const float c = static_cast<float>(rng.Uniform(-1, 1));
    x->At(i, 0) = a;
    x->At(i, 1) = b;
    x->At(i, 2) = c;  // irrelevant feature
    (*y)[i] = 3 * a - 2 * b +
              static_cast<float>(rng.Gaussian(0, noise));
  }
}

TEST(RegressionTreeTest, FitsAStepFunction) {
  const int n = 400;
  Matrix x(n, 1);
  std::vector<float> y(n);
  Rng rng(1);
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(0, 1));
    y[i] = x.At(i, 0) < 0.5f ? -1.0f : 1.0f;
    rows[i] = i;
  }
  RegressionTree tree;
  TreeConfig config;
  config.max_depth = 2;
  config.min_samples_leaf = 5;
  tree.Fit(x, y, rows, config);
  float probe_low[1] = {0.2f};
  float probe_high[1] = {0.8f};
  EXPECT_NEAR(tree.Predict(probe_low), -1.0f, 0.1f);
  EXPECT_NEAR(tree.Predict(probe_high), 1.0f, 0.1f);
}

TEST(RegressionTreeTest, RespectsDepthLimit) {
  Matrix x;
  std::vector<float> y;
  MakeLinearData(500, &x, &y, 2);
  std::vector<int> rows(500);
  for (int i = 0; i < 500; ++i) rows[i] = i;
  TreeConfig config;
  config.max_depth = 3;
  RegressionTree tree;
  tree.Fit(x, y, rows, config);
  EXPECT_LE(tree.depth(), 3);
  EXPECT_GT(tree.num_nodes(), 1);  // it did split
}

TEST(RegressionTreeTest, ConstantTargetGivesSingleLeaf) {
  Matrix x(50, 2);
  std::vector<float> y(50, 4.25f);
  Rng rng(3);
  std::vector<int> rows(50);
  for (int i = 0; i < 50; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(0, 1));
    x.At(i, 1) = static_cast<float>(rng.Uniform(0, 1));
    rows[i] = i;
  }
  RegressionTree tree;
  tree.Fit(x, y, rows, TreeConfig{});
  float probe[2] = {0.5f, 0.5f};
  EXPECT_FLOAT_EQ(tree.Predict(probe), 4.25f);
}

TEST(GbdtRegressorTest, LearnsLinearFunction) {
  Matrix x;
  std::vector<float> y;
  MakeLinearData(1500, &x, &y, 4, 0.05f);
  BoosterConfig config;
  config.num_rounds = 80;
  GbdtRegressor model(config);
  model.Fit(x, y);

  Matrix xt;
  std::vector<float> yt;
  MakeLinearData(300, &xt, &yt, 5, 0.0f);
  double mae = 0;
  for (int i = 0; i < xt.rows(); ++i) {
    mae += std::fabs(model.Predict(xt.data() + i * 3) - yt[i]);
  }
  mae /= xt.rows();
  EXPECT_LT(mae, 0.45);  // well below the target's ~2.0 mean abs value
}

TEST(GbdtRegressorTest, MoreRoundsReduceTrainError) {
  Matrix x;
  std::vector<float> y;
  MakeLinearData(800, &x, &y, 6, 0.0f);
  auto train_mae = [&](int rounds) {
    BoosterConfig config;
    config.num_rounds = rounds;
    GbdtRegressor model(config);
    model.Fit(x, y);
    double mae = 0;
    for (int i = 0; i < x.rows(); ++i) {
      mae += std::fabs(model.Predict(x.data() + i * 3) - y[i]);
    }
    return mae / x.rows();
  };
  EXPECT_LT(train_mae(60), train_mae(5));
}

TEST(GbdtClassifierTest, SeparatesLinearBoundary) {
  Rng rng(7);
  const int n = 1500;
  Matrix x(n, 2);
  std::vector<float> y(n);
  for (int i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
    x.At(i, 1) = static_cast<float>(rng.Uniform(-1, 1));
    y[i] = (x.At(i, 0) + x.At(i, 1) > 0) ? 1.0f : 0.0f;
  }
  BoosterConfig config;
  config.num_rounds = 60;
  GbdtBinaryClassifier model(config);
  model.Fit(x, y);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const float p = model.PredictProbability(x.data() + i * 2);
    if ((p > 0.5f) == (y[i] > 0.5f)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.93);
}

TEST(GbdtClassifierTest, ProbabilitiesAreCalibratedInSign) {
  Rng rng(8);
  const int n = 800;
  Matrix x(n, 1);
  std::vector<float> y(n);
  for (int i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
    y[i] = x.At(i, 0) > 0 ? 1.0f : 0.0f;
  }
  BoosterConfig config;
  GbdtBinaryClassifier model(config);
  model.Fit(x, y);
  float deep_pos[1] = {0.9f};
  float deep_neg[1] = {-0.9f};
  EXPECT_GT(model.PredictProbability(deep_pos), 0.8f);
  EXPECT_LT(model.PredictProbability(deep_neg), 0.2f);
  // Score is the raw margin: monotone with probability.
  EXPECT_GT(model.PredictScore(deep_pos), model.PredictScore(deep_neg));
}

TEST(GbdtTest, DeterministicForFixedSeed) {
  Matrix x;
  std::vector<float> y;
  MakeLinearData(400, &x, &y, 9, 0.1f);
  BoosterConfig config;
  GbdtRegressor a(config), b(config);
  a.Fit(x, y);
  b.Fit(x, y);
  float probe[3] = {0.3f, -0.4f, 0.1f};
  EXPECT_FLOAT_EQ(a.Predict(probe), b.Predict(probe));
}

}  // namespace
}  // namespace m2g::baselines::gbdt
