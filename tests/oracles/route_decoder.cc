#include "tests/oracles/route_decoder.h"

#include <algorithm>
#include <cmath>

#include "tests/oracles/ops.h"

namespace m2g::core {
namespace {

/// One candidate (hypothesis, next node) pair of a beam step.
struct Expansion {
  int hyp = 0;
  int node = 0;
  double logp = 0;
};

/// The decoder's beam ordering: by score, then hypothesis index, then
/// node id.
bool ExpansionBefore(const Expansion& a, const Expansion& b) {
  if (a.logp != b.logp) return a.logp > b.logp;
  if (a.hyp != b.hyp) return a.hyp < b.hyp;
  return a.node < b.node;
}

}  // namespace

Tensor RouteDecoderOracle::StepLogits(const Tensor& nodes,
                                      const Tensor& courier,
                                      const nn::LstmState& state) const {
  // q = W7 [h_{s-1} || u]; scores_j = v^T tanh(W6 x_j + q).
  Tensor q = MatMul(ConcatCols(state.h, courier), d_.w7_);  // (1, node_dim)
  Tensor keys = AddRowBroadcast(MatMul(nodes, d_.w6_), q);  // (n, node_dim)
  return Transpose(MatMul(Tanh(keys), d_.v_));              // (1, n)
}

Matrix RouteDecoderOracle::StepScores(const Tensor& nodes,
                                      const Tensor& courier,
                                      const Matrix& h) const {
  M2G_CHECK_EQ(h.rows(), 1);
  M2G_CHECK_EQ(h.cols(), d_.lstm_hidden_);
  const AttentionRouteDecoder::KeyCache cache =
      d_.BuildKeyCache(nodes, courier);
  Matrix q = Matrix::Uninit(1, d_.node_dim_);
  d_.QueryRow(cache, h.data(), q.data());
  const int n = cache.keys.rows();
  Matrix scores = Matrix::Uninit(1, n);
  const std::vector<bool> all(n, true);
  PointerScoresMasked(cache.keys, q.data(), d_.v_.value().data(), all,
                      scores.data());
  return scores;
}

Tensor RouteDecoderOracle::TeacherForcedLossLegacy(
    const Tensor& nodes, const Tensor& courier,
    const std::vector<int>& label_route) const {
  const int n = nodes.rows();
  M2G_CHECK_EQ(static_cast<int>(label_route.size()), n);
  nn::LstmState state = d_.lstm_->InitialState();
  Tensor input = d_.start_token_;
  std::vector<bool> unvisited(n, true);
  Tensor total = Tensor::Scalar(0.0f);
  for (int s = 0; s < n; ++s) {
    state = d_.lstm_->Forward(input, state);
    Tensor logits = StepLogits(nodes, courier, state);
    total = Add(total,
                MaskedCrossEntropy(logits, label_route[s], unvisited));
    unvisited[label_route[s]] = false;
    input = Row(nodes, label_route[s]);
  }
  return Scale(total, 1.0f / static_cast<float>(n));
}

std::vector<int> RouteDecoderOracle::DecodeGreedyLegacy(
    const Tensor& nodes, const Tensor& courier) const {
  const int n = nodes.rows();
  nn::LstmState state = d_.lstm_->InitialState();
  Tensor input = d_.start_token_;
  std::vector<bool> unvisited(n, true);
  std::vector<int> route;
  route.reserve(n);
  for (int s = 0; s < n; ++s) {
    state = d_.lstm_->Forward(input, state);
    Tensor logits = StepLogits(nodes, courier, state);
    const int pick = ArgmaxMaskedRow(logits.value(), unvisited);
    route.push_back(pick);
    unvisited[pick] = false;
    input = Row(nodes, pick);
  }
  return route;
}

std::vector<int> RouteDecoderOracle::DecodeBeamLegacy(
    const Tensor& nodes, const Tensor& courier, int beam_width) const {
  M2G_CHECK_GE(beam_width, 1);
  if (beam_width == 1) return DecodeGreedyLegacy(nodes, courier);
  const int n = nodes.rows();

  struct Hypothesis {
    nn::LstmState state;
    Tensor input;
    std::vector<bool> unvisited;
    std::vector<int> route;
    double logp = 0;
  };
  Hypothesis seed;
  seed.state = d_.lstm_->InitialState();
  seed.input = d_.start_token_;
  seed.unvisited.assign(n, true);
  std::vector<Hypothesis> beam = {std::move(seed)};

  for (int s = 0; s < n; ++s) {
    std::vector<Expansion> expansions;
    std::vector<nn::LstmState> advanced(beam.size());
    for (size_t h = 0; h < beam.size(); ++h) {
      advanced[h] = d_.lstm_->Forward(beam[h].input, beam[h].state);
      Tensor logits = StepLogits(nodes, courier, advanced[h]);
      // Masked log-softmax over the hypothesis's unvisited set.
      const Matrix& lv = logits.value();
      double max_v = -1e30;
      for (int j = 0; j < n; ++j) {
        if (beam[h].unvisited[j]) {
          max_v = std::max(max_v, static_cast<double>(lv[j]));
        }
      }
      double denom = 0;
      for (int j = 0; j < n; ++j) {
        if (beam[h].unvisited[j]) denom += std::exp(lv[j] - max_v);
      }
      const double log_z = max_v + std::log(denom);
      for (int j = 0; j < n; ++j) {
        if (!beam[h].unvisited[j]) continue;
        expansions.push_back(
            {static_cast<int>(h), j, beam[h].logp + lv[j] - log_z});
      }
    }
    const size_t keep =
        std::min<size_t>(static_cast<size_t>(beam_width),
                         expansions.size());
    std::partial_sort(expansions.begin(), expansions.begin() + keep,
                      expansions.end(), ExpansionBefore);
    std::vector<Hypothesis> next;
    next.reserve(keep);
    for (size_t e = 0; e < keep; ++e) {
      const Expansion& ex = expansions[e];
      Hypothesis hyp;
      hyp.state = advanced[ex.hyp];
      hyp.input = Row(nodes, ex.node);
      hyp.unvisited = beam[ex.hyp].unvisited;
      hyp.unvisited[ex.node] = false;
      hyp.route = beam[ex.hyp].route;
      hyp.route.push_back(ex.node);
      hyp.logp = ex.logp;
      next.push_back(std::move(hyp));
    }
    beam = std::move(next);
  }
  return beam.front().route;
}

}  // namespace m2g::core
