#ifndef M2G_BASELINES_GBDT_BOOSTER_H_
#define M2G_BASELINES_GBDT_BOOSTER_H_

#include <vector>

#include "baselines/gbdt/tree.h"
#include "common/rng.h"

namespace m2g::baselines::gbdt {

struct BoosterConfig {
  int num_rounds = 60;
  float learning_rate = 0.1f;
  /// Fraction of rows sampled per round (stochastic gradient boosting).
  float subsample = 0.8f;
  TreeConfig tree;
  uint64_t seed = 1234;
};

/// Gradient-boosted regression trees with squared loss — the XGBoost
/// substitute used by OSquare's time head.
class GbdtRegressor {
 public:
  explicit GbdtRegressor(const BoosterConfig& config) : config_(config) {}

  void Fit(const Matrix& x, const std::vector<float>& y);
  float Predict(const float* features) const;
  float Predict(const std::vector<float>& features) const {
    return Predict(features.data());
  }
  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  BoosterConfig config_;
  float base_score_ = 0;
  std::vector<RegressionTree> trees_;
};

/// Gradient boosting with logistic loss for binary targets in {0,1} —
/// the XGBoost substitute used by OSquare's next-location ranker.
/// PredictScore returns the raw margin (monotone in probability).
class GbdtBinaryClassifier {
 public:
  explicit GbdtBinaryClassifier(const BoosterConfig& config)
      : config_(config) {}

  void Fit(const Matrix& x, const std::vector<float>& y);
  float PredictScore(const float* features) const;
  float PredictProbability(const float* features) const;
  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  BoosterConfig config_;
  float base_score_ = 0;
  std::vector<RegressionTree> trees_;
};

}  // namespace m2g::baselines::gbdt

#endif  // M2G_BASELINES_GBDT_BOOSTER_H_
