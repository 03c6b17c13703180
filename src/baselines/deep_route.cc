#include "baselines/deep_route.h"

#include <cmath>

#include "common/string_util.h"
#include "graph/features.h"
#include "nn/init.h"

namespace m2g::baselines {

DeepRoute::DeepRoute(const DeepBaselineConfig& config)
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
  layers_.resize(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    SelfAttentionLayer& layer = layers_[l];
    const std::string p = StrFormat("layer%d_", l);
    layer.wq = AddParameter(p + "wq", nn::XavierUniform(d, d, &rng));
    layer.wk = AddParameter(p + "wk", nn::XavierUniform(d, d, &rng));
    layer.wv = AddParameter(p + "wv", nn::XavierUniform(d, d, &rng));
    layer.wo = AddParameter(p + "wo", nn::XavierUniform(d, d, &rng));
    layer.ff1 = AddParameter(p + "ff1", nn::XavierUniform(d, 2 * d, &rng));
    layer.ff1_b = AddParameter(p + "ff1_b", Matrix(1, 2 * d));
    layer.ff2 = AddParameter(p + "ff2", nn::XavierUniform(2 * d, d, &rng));
    layer.ff2_b = AddParameter(p + "ff2_b", Matrix(1, d));
  }
  decoder_ = std::make_unique<core::AttentionRouteDecoder>(
      d, config.courier_dim, config.lstm_hidden_dim, &rng);
  AddChild("decoder", decoder_.get());
  time_head_ = std::make_unique<PluggedTimeMlp>(config.time_head);
}

Tensor DeepRoute::RunLayer(const SelfAttentionLayer& layer,
                           const Tensor& h) const {
  const int n = h.rows();
  const int d = config_.hidden_dim;
  // Single-head scaled dot-product attention with residuals. (The paper's
  // DeepRoute uses a standard Transformer encoder; at d=32 and n<=20 one
  // head per layer is capacity-equivalent and cheaper.)
  Tensor q = MatMul(h, layer.wq);
  Tensor k = MatMul(h, layer.wk);
  Tensor v = MatMul(h, layer.wv);
  Tensor scores =
      Scale(MatMul(q, Transpose(k)), 1.0f / std::sqrt(static_cast<float>(d)));
  std::vector<bool> all(n, true);
  std::vector<Tensor> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(MaskedSoftmaxRow(Row(scores, i), all));
  }
  Tensor attn = MatMul(ConcatRows(rows), v);
  Tensor mixed = Add(h, MatMul(attn, layer.wo));  // residual 1
  Tensor ff = AddRowBroadcast(
      MatMul(Relu(AddRowBroadcast(MatMul(mixed, layer.ff1), layer.ff1_b)),
             layer.ff2),
      layer.ff2_b);
  return Add(mixed, ff);  // residual 2
}

Tensor DeepRoute::EncodeSample(const synth::Sample& sample) const {
  graph::LevelGraph level = graph::BuildLocationGraph(sample, {});
  Tensor nodes = feature_embed_->EmbedNodes(level);
  Tensor u = global_embed_->Embed(sample);
  Tensor h = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(u, level.n)));
  for (const SelfAttentionLayer& layer : layers_) {
    h = RunLayer(layer, h);
  }
  return h;
}

}  // namespace m2g::baselines
