#include "baselines/fdnet.h"

#include "graph/features.h"

namespace m2g::baselines {

Fdnet::WideDeepTimeHead::WideDeepTimeHead(const Config& config, Rng* rng)
    : PluggedTimeHead(config, config.seed ^ 0x77) {
  wide_ = std::make_unique<nn::Linear>(kTimeFeatureDim, 1, rng);
  deep_ = std::make_unique<nn::Mlp>(
      std::vector<int>{kTimeFeatureDim, config.hidden_dim,
                       config.hidden_dim, 1},
      rng);
  AddChild("wide", wide_.get());
  AddChild("deep", deep_.get());
}

Tensor Fdnet::WideDeepTimeHead::Forward(const Tensor& features) const {
  return Add(wide_->Forward(features), deep_->Forward(features));
}

Fdnet::Fdnet(const DeepBaselineConfig& config)
    : RouteBaseline(config) {
  core::ModelConfig mc = config.ToModelConfig();
  Rng rng(config.seed);
  feature_embed_ = std::make_unique<core::LevelFeatureEmbed>(
      mc, graph::kLocationContinuousDim, &rng);
  AddChild("feature_embed", feature_embed_.get());
  global_embed_ = std::make_unique<core::GlobalFeatureEmbed>(mc, &rng);
  AddChild("global_embed", global_embed_.get());
  encoder_lstm_ = std::make_unique<nn::LstmCell>(
      config.hidden_dim + config.courier_dim, config.hidden_dim, &rng);
  AddChild("encoder_lstm", encoder_lstm_.get());
  encoder_proj_ = std::make_unique<nn::Linear>(config.hidden_dim,
                                               config.hidden_dim, &rng);
  AddChild("encoder_proj", encoder_proj_.get());
  decoder_ = std::make_unique<core::AttentionRouteDecoder>(
      config.hidden_dim, config.courier_dim, config.lstm_hidden_dim, &rng);
  AddChild("decoder", decoder_.get());
  time_head_ =
      std::make_unique<WideDeepTimeHead>(config.time_head, &rng);
}

Tensor Fdnet::EncodeSample(const synth::Sample& sample) const {
  graph::LevelGraph level = graph::BuildLocationGraph(sample, {});
  Tensor nodes = feature_embed_->EmbedNodes(level);
  Tensor u = global_embed_->Embed(sample);
  Tensor x = ConcatCols(nodes, BroadcastRows(u, level.n));
  // Unidirectional RNN over the (arbitrary) input order — FDNET's
  // sequence-encoder limitation, kept faithfully.
  nn::LstmState state = encoder_lstm_->InitialState();
  std::vector<Tensor> rows;
  rows.reserve(level.n);
  for (int i = 0; i < level.n; ++i) {
    state = encoder_lstm_->Forward(Row(x, i), state);
    rows.push_back(state.h);
  }
  return encoder_proj_->Forward(ConcatRows(rows));
}

}  // namespace m2g::baselines
