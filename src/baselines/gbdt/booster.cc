#include "baselines/gbdt/booster.h"

#include <cmath>

#include "common/check.h"

namespace m2g::baselines::gbdt {
namespace {

std::vector<int> SampleRows(int n, float fraction, Rng* rng) {
  if (fraction >= 1.0f) {
    std::vector<int> all(n);
    for (int i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  std::vector<int> rows;
  rows.reserve(static_cast<size_t>(n * fraction) + 1);
  for (int i = 0; i < n; ++i) {
    if (rng->Bernoulli(fraction)) rows.push_back(i);
  }
  if (rows.empty()) rows.push_back(rng->UniformInt(0, n - 1));
  return rows;
}

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

void GbdtRegressor::Fit(const Matrix& x, const std::vector<float>& y) {
  M2G_CHECK_EQ(static_cast<size_t>(x.rows()), y.size());
  M2G_CHECK_GT(x.rows(), 0);
  trees_.clear();
  double mean = 0;
  for (float v : y) mean += v;
  base_score_ = static_cast<float>(mean / y.size());

  Rng rng(config_.seed);
  std::vector<float> pred(y.size(), base_score_);
  std::vector<float> residual(y.size());
  for (int round = 0; round < config_.num_rounds; ++round) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    std::vector<int> rows = SampleRows(x.rows(), config_.subsample, &rng);
    RegressionTree tree;
    tree.Fit(x, residual, rows, config_.tree);
    for (int i = 0; i < x.rows(); ++i) {
      pred[i] += config_.learning_rate *
                 tree.Predict(x.data() + static_cast<size_t>(i) * x.cols());
    }
    trees_.push_back(std::move(tree));
  }
}

float GbdtRegressor::Predict(const float* features) const {
  float out = base_score_;
  for (const RegressionTree& tree : trees_) {
    out += config_.learning_rate * tree.Predict(features);
  }
  return out;
}

void GbdtBinaryClassifier::Fit(const Matrix& x,
                               const std::vector<float>& y) {
  M2G_CHECK_EQ(static_cast<size_t>(x.rows()), y.size());
  M2G_CHECK_GT(x.rows(), 0);
  trees_.clear();
  double mean = 0;
  for (float v : y) mean += v;
  const double p = std::min(0.99, std::max(0.01, mean / y.size()));
  base_score_ = static_cast<float>(std::log(p / (1.0 - p)));

  Rng rng(config_.seed);
  std::vector<float> margin(y.size(), base_score_);
  std::vector<float> residual(y.size());
  for (int round = 0; round < config_.num_rounds; ++round) {
    // Negative gradient of logistic loss: y - sigmoid(margin).
    for (size_t i = 0; i < y.size(); ++i) {
      residual[i] = y[i] - Sigmoid(margin[i]);
    }
    std::vector<int> rows = SampleRows(x.rows(), config_.subsample, &rng);
    RegressionTree tree;
    tree.Fit(x, residual, rows, config_.tree);
    for (int i = 0; i < x.rows(); ++i) {
      margin[i] +=
          config_.learning_rate *
          tree.Predict(x.data() + static_cast<size_t>(i) * x.cols());
    }
    trees_.push_back(std::move(tree));
  }
}

float GbdtBinaryClassifier::PredictScore(const float* features) const {
  float out = base_score_;
  for (const RegressionTree& tree : trees_) {
    out += config_.learning_rate * tree.Predict(features);
  }
  return out;
}

float GbdtBinaryClassifier::PredictProbability(
    const float* features) const {
  return Sigmoid(PredictScore(features));
}

}  // namespace m2g::baselines::gbdt
