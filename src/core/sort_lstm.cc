#include "core/sort_lstm.h"

#include <cmath>

namespace m2g::core {

SortLstm::SortLstm(int node_dim, int pos_dim, float pos_base,
                   int lstm_hidden, Rng* rng, int edge_dim)
    : pos_dim_(pos_dim), pos_base_(pos_base), edge_dim_(edge_dim) {
  M2G_CHECK_GT(edge_dim, 0);
  lstm_ = std::make_unique<nn::LstmCell>(node_dim + pos_dim + edge_dim,
                                         lstm_hidden, rng);
  head_ = std::make_unique<nn::Linear>(lstm_hidden, 1, rng);
  AddChild("lstm", lstm_.get());
  AddChild("head", head_.get());
}

Matrix SortLstm::PositionalEncoding(int pos, int dim, float base) {
  Matrix p(1, dim);
  for (int k = 0; 2 * k < dim; ++k) {
    const double freq =
        std::pow(static_cast<double>(base),
                 2.0 * k / static_cast<double>(dim));
    p.At(0, 2 * k) = static_cast<float>(std::sin(pos / freq));
    if (2 * k + 1 < dim) {
      p.At(0, 2 * k + 1) = static_cast<float>(std::cos(pos / freq));
    }
  }
  return p;
}

std::vector<Tensor> SortLstm::Forward(const Tensor& nodes,
                                      const std::vector<int>& route,
                                      const Tensor& edges) const {
  const int n = nodes.rows();
  M2G_CHECK_EQ(static_cast<int>(route.size()), n);
  std::vector<Tensor> out(n);
  nn::LstmState state = lstm_->InitialState();
  for (int s = 0; s < n; ++s) {
    Tensor pos = Tensor::Constant(
        PositionalEncoding(s + 1, pos_dim_, pos_base_));
    Tensor input = ConcatCols(Row(nodes, route[s]), pos);  // Eq. 33
    Tensor leg;
    if (edges.defined()) {
      // Edge traversed into this node; the self-edge for step 0.
      const int prev = s == 0 ? route[s] : route[s - 1];
      leg = Row(edges, prev * n + route[s]);
      M2G_CHECK_EQ(leg.cols(), edge_dim_);
    } else {
      leg = Tensor::Constant(Matrix(1, edge_dim_));
    }
    input = ConcatCols(input, leg);
    state = lstm_->Forward(input, state);
    out[route[s]] = head_->Forward(state.h);  // (1,1)
  }
  return out;
}

}  // namespace m2g::core
