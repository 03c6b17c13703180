#include "core/sort_lstm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/grad_mode.h"

namespace m2g::core {

SortLstm::SortLstm(int node_dim, int pos_dim, float pos_base,
                   int lstm_hidden, Rng* rng, int edge_dim)
    : pos_dim_(pos_dim), pos_base_(pos_base), edge_dim_(edge_dim) {
  M2G_CHECK_GT(edge_dim, 0);
  pos_table_.resize(static_cast<size_t>(kPositionTableRows) * pos_dim);
  for (int pos = 1; pos <= kPositionTableRows; ++pos) {
    WritePositionalEncoding(
        pos, pos_dim, pos_base,
        pos_table_.data() + static_cast<size_t>(pos - 1) * pos_dim);
  }
  lstm_ = std::make_unique<nn::LstmCell>(node_dim + pos_dim + edge_dim,
                                         lstm_hidden, rng);
  head_ = std::make_unique<nn::Linear>(lstm_hidden, 1, rng);
  AddChild("lstm", lstm_.get());
  AddChild("head", head_.get());
}

void SortLstm::WritePositionalEncoding(int pos, int dim, float base,
                                       float* out) {
  for (int k = 0; 2 * k < dim; ++k) {
    const double freq =
        std::pow(static_cast<double>(base),
                 2.0 * k / static_cast<double>(dim));
    out[2 * k] = static_cast<float>(std::sin(pos / freq));
    if (2 * k + 1 < dim) {
      out[2 * k + 1] = static_cast<float>(std::cos(pos / freq));
    }
  }
}

void SortLstm::WritePosition(int pos, float* out) const {
  if (pos >= 1 && pos <= kPositionTableRows) {
    std::copy_n(pos_table_.data() + static_cast<size_t>(pos - 1) * pos_dim_,
                pos_dim_, out);
    return;
  }
  WritePositionalEncoding(pos, pos_dim_, pos_base_, out);
}

std::vector<Tensor> SortLstm::Forward(const Tensor& nodes,
                                      const std::vector<int>& route,
                                      const Tensor& edges) const {
  if (!GradMode::enabled()) {
    return ForwardRaw(nodes.value(), route,
                      edges.defined() ? &edges.value() : nullptr);
  }
  const int n = nodes.rows();
  M2G_CHECK_EQ(static_cast<int>(route.size()), n);
  std::vector<Tensor> out(n);
  nn::LstmState state = lstm_->InitialState();
  for (int s = 0; s < n; ++s) {
    Matrix pos = Matrix::Uninit(1, pos_dim_);
    WritePosition(s + 1, pos.data());
    Tensor input = ConcatCols(Row(nodes, route[s]),
                              Tensor::Constant(std::move(pos)));  // Eq. 33
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

std::vector<Tensor> SortLstm::ForwardRaw(const Matrix& nodes,
                                         const std::vector<int>& route,
                                         const Matrix* edges) const {
  const int n = nodes.rows();
  const int node_dim = nodes.cols();
  M2G_CHECK_EQ(static_cast<int>(route.size()), n);
  M2G_CHECK_EQ(node_dim + pos_dim_ + edge_dim_, lstm_->input_size());
  if (edges != nullptr) {
    M2G_CHECK_EQ(edges->cols(), edge_dim_);
    M2G_CHECK_GE(edges->rows(), n * n);
  }
  const int H = lstm_->hidden_size();
  // Zeroed once: without edges the edge slot stays the op chain's zeros.
  Matrix input(1, lstm_->input_size());
  float* pos_slot = input.data() + node_dim;
  float* edge_slot = pos_slot + pos_dim_;
  const float* x_row = input.data();
  Matrix h(1, H), c(1, H);
  Matrix h_next = Matrix::Uninit(1, H), c_next = Matrix::Uninit(1, H);
  std::vector<Tensor> out(n);
  for (int s = 0; s < n; ++s) {
    const int node = route[s];
    M2G_CHECK(node >= 0 && node < n);
    std::copy_n(nodes.data() + static_cast<size_t>(node) * node_dim,
                node_dim, input.data());
    WritePosition(s + 1, pos_slot);
    if (edges != nullptr) {
      const int prev = s == 0 ? node : route[s - 1];
      std::copy_n(edges->data() +
                      (static_cast<size_t>(prev) * n + node) * edge_dim_,
                  edge_dim_, edge_slot);
    }
    lstm_->StepRawBatch(&x_row, 1, h, c, &h_next, &c_next);
    std::swap(h, h_next);
    std::swap(c, c_next);
    out[node] = Tensor::Constant(head_->ForwardRaw(h));  // (1,1)
  }
  return out;
}

}  // namespace m2g::core
