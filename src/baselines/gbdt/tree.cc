#include "baselines/gbdt/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace m2g::baselines::gbdt {
namespace {

struct SplitResult {
  bool found = false;
  int feature = -1;
  float threshold = 0;
  double gain = 0;
};

/// Best variance-reduction split over [begin, end) of `rows`.
SplitResult FindBestSplit(const Matrix& x, const std::vector<float>& y,
                          const std::vector<int>& rows, int begin, int end,
                          const TreeConfig& config) {
  const int count = end - begin;
  SplitResult best;
  double total_sum = 0;
  for (int r = begin; r < end; ++r) total_sum += y[rows[r]];

  const int bins = config.num_bins;
  std::vector<double> bin_sum(bins);
  std::vector<int> bin_count(bins);
  for (int f = 0; f < x.cols(); ++f) {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (int r = begin; r < end; ++r) {
      const float v = x.At(rows[r], f);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (!(hi > lo)) continue;  // constant feature in this node
    std::fill(bin_sum.begin(), bin_sum.end(), 0.0);
    std::fill(bin_count.begin(), bin_count.end(), 0);
    const float scale = bins / (hi - lo);
    for (int r = begin; r < end; ++r) {
      const float v = x.At(rows[r], f);
      int b = static_cast<int>((v - lo) * scale);
      b = std::clamp(b, 0, bins - 1);
      bin_sum[b] += y[rows[r]];
      bin_count[b] += 1;
    }
    double left_sum = 0;
    int left_count = 0;
    for (int b = 0; b + 1 < bins; ++b) {
      left_sum += bin_sum[b];
      left_count += bin_count[b];
      const int right_count = count - left_count;
      if (left_count < config.min_samples_leaf ||
          right_count < config.min_samples_leaf) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      // Variance reduction up to constants: sum_L^2/n_L + sum_R^2/n_R.
      const double gain = left_sum * left_sum / left_count +
                          right_sum * right_sum / right_count -
                          total_sum * total_sum / count;
      if (gain > best.gain + config.min_gain) {
        best.found = true;
        best.feature = f;
        best.threshold = lo + (b + 1) / scale;  // right edge of bin b
        best.gain = gain;
      }
    }
  }
  return best;
}

}  // namespace

void RegressionTree::Fit(const Matrix& x, const std::vector<float>& y,
                         const std::vector<int>& rows,
                         const TreeConfig& config) {
  M2G_CHECK(!rows.empty());
  M2G_CHECK_EQ(static_cast<size_t>(x.rows()), y.size());
  nodes_.clear();
  std::vector<int> work = rows;
  Build(x, y, &work, 0, static_cast<int>(work.size()), 0, config);
}

int RegressionTree::Build(const Matrix& x, const std::vector<float>& y,
                          std::vector<int>* rows, int begin, int end,
                          int depth, const TreeConfig& config) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  double sum = 0;
  for (int r = begin; r < end; ++r) sum += y[(*rows)[r]];
  nodes_[node_id].value = static_cast<float>(sum / (end - begin));

  if (depth >= config.max_depth ||
      end - begin < 2 * config.min_samples_leaf) {
    return node_id;
  }
  SplitResult split = FindBestSplit(x, y, *rows, begin, end, config);
  if (!split.found) return node_id;

  // Partition rows in place.
  auto mid_it = std::partition(
      rows->begin() + begin, rows->begin() + end, [&](int r) {
        return x.At(r, split.feature) < split.threshold;
      });
  const int mid = static_cast<int>(mid_it - rows->begin());
  if (mid == begin || mid == end) return node_id;  // degenerate split

  nodes_[node_id].leaf = false;
  nodes_[node_id].feature = split.feature;
  nodes_[node_id].threshold = split.threshold;
  const int left = Build(x, y, rows, begin, mid, depth + 1, config);
  nodes_[node_id].left = left;
  const int right = Build(x, y, rows, mid, end, depth + 1, config);
  nodes_[node_id].right = right;
  return node_id;
}

float RegressionTree::Predict(const float* features) const {
  M2G_CHECK(!nodes_.empty());
  int node = 0;
  while (!nodes_[node].leaf) {
    node = features[nodes_[node].feature] < nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

int RegressionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes_[node].leaf) {
      stack.push_back({nodes_[node].left, d + 1});
      stack.push_back({nodes_[node].right, d + 1});
    }
  }
  return max_depth;
}

}  // namespace m2g::baselines::gbdt
