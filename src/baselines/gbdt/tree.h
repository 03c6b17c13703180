#ifndef M2G_BASELINES_GBDT_TREE_H_
#define M2G_BASELINES_GBDT_TREE_H_

#include <vector>

#include "tensor/matrix.h"

namespace m2g::baselines::gbdt {

struct TreeConfig {
  int max_depth = 4;
  int min_samples_leaf = 20;
  /// Histogram bins per feature (uniform over the feature's range).
  int num_bins = 32;
  /// Minimum variance-reduction gain to accept a split.
  double min_gain = 1e-7;
};

/// CART-style regression tree fit by histogram-based greedy variance
/// reduction. This is the weak learner inside the gradient booster that
/// substitutes for XGBoost in the OSquare baseline.
class RegressionTree {
 public:
  /// Fits to target `y` restricted to `rows` of the (num_rows x
  /// num_features) design matrix `x`.
  void Fit(const Matrix& x, const std::vector<float>& y,
           const std::vector<int>& rows, const TreeConfig& config);

  /// Prediction for one feature row (pointer to num_features floats).
  float Predict(const float* features) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int depth() const;

 private:
  struct Node {
    bool leaf = true;
    int feature = -1;
    float threshold = 0;
    float value = 0;
    int left = -1;
    int right = -1;
  };

  int Build(const Matrix& x, const std::vector<float>& y,
            std::vector<int>* rows, int begin, int end, int depth,
            const TreeConfig& config);

  std::vector<Node> nodes_;
};

}  // namespace m2g::baselines::gbdt

#endif  // M2G_BASELINES_GBDT_TREE_H_
