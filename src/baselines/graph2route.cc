#include "baselines/graph2route.h"

#include <cmath>

#include "common/string_util.h"
#include "graph/features.h"
#include "nn/init.h"

namespace m2g::baselines {

Matrix NormalizedAdjacency(const std::vector<bool>& adjacency, int n) {
  Matrix a(n, n);
  std::vector<float> degree(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (adjacency[i * n + j]) {
        a.At(i, j) = 1.0f;
        degree[i] += 1.0f;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (a.At(i, j) != 0.0f) {
        a.At(i, j) /= std::sqrt(degree[i] * degree[j]);
      }
    }
  }
  return a;
}

Graph2Route::Graph2Route(const DeepBaselineConfig& config)
    : RouteBaseline(config) {
  core::ModelConfig mc = config.ToModelConfig();
  Rng rng(config.seed);
  feature_embed_ = std::make_unique<core::LevelFeatureEmbed>(
      mc, graph::kLocationContinuousDim, &rng);
  AddChild("feature_embed", feature_embed_.get());
  global_embed_ = std::make_unique<core::GlobalFeatureEmbed>(mc, &rng);
  AddChild("global_embed", global_embed_.get());
  input_proj_ = std::make_unique<nn::Linear>(
      config.hidden_dim + config.courier_dim, config.hidden_dim, &rng);
  AddChild("input_proj", input_proj_.get());
  const int d = config.hidden_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    gcn_weights_.push_back(AddParameter(StrFormat("gcn%d_w", l),
                                        nn::XavierUniform(d, d, &rng)));
    gcn_self_weights_.push_back(AddParameter(
        StrFormat("gcn%d_w_self", l), nn::XavierUniform(d, d, &rng)));
    gcn_biases_.push_back(
        AddParameter(StrFormat("gcn%d_b", l), Matrix(1, d)));
  }
  decoder_ = std::make_unique<core::AttentionRouteDecoder>(
      d, config.courier_dim, config.lstm_hidden_dim, &rng);
  AddChild("decoder", decoder_.get());
  time_head_ = std::make_unique<PluggedTimeMlp>(config.time_head);
}

Tensor Graph2Route::EncodeSample(const synth::Sample& sample) const {
  graph::LevelGraph level = graph::BuildLocationGraph(sample, {});
  Tensor nodes = feature_embed_->EmbedNodes(level);
  Tensor u = global_embed_->Embed(sample);
  Tensor h = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(u, level.n)));
  Tensor a_norm =
      Tensor::Constant(NormalizedAdjacency(level.adjacency, level.n));
  for (size_t l = 0; l < gcn_weights_.size(); ++l) {
    // GraphSAGE-style propagation H' = ReLU(Â H W + H W_self + b): the
    // separate self transform preserves node identity, which the pointer
    // decoder needs (a plain GCN over-smooths these tiny dense graphs
    // and every node becomes un-pointable).
    Tensor propagated = AddRowBroadcast(
        Add(MatMul(MatMul(a_norm, h), gcn_weights_[l]),
            MatMul(h, gcn_self_weights_[l])),
        gcn_biases_[l]);
    Tensor activated = Relu(propagated);
    h = l == 0 ? activated : Add(h, activated);
  }
  return h;
}

}  // namespace m2g::baselines
