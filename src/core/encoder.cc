#include "core/encoder.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "core/incremental_encode.h"
#include "tensor/grad_mode.h"

namespace m2g::core {
namespace {

/// Padded session-cache capacity for n nodes: at least 16, so tiny graphs
/// do not re-warm on every arrival, and doubling, so an arrival stream
/// re-warms O(log n) times. Capacity-change fallbacks are full encodes;
/// the slack's bytes are bounded by the session store's LRU budget.
int GrownCapacity(int n) { return std::max(16, 2 * n); }

/// (Re)sizes `cache` for n nodes through `layers`, zero-initialized so no
/// path can observe uninitialized floats and bytes() is exact.
void FitCache(const std::vector<std::unique_ptr<GatELayer>>& layers, int n,
              int d, LevelEncodeCache* cache) {
  const int num_layers = static_cast<int>(layers.size());
  const int heads = layers.front()->num_heads();
  if (cache->cap >= n && cache->hidden == d && cache->layers == num_layers &&
      cache->heads == heads) {
    return;
  }
  cache->Reset();
  cache->cap = GrownCapacity(n);
  cache->hidden = d;
  cache->layers = num_layers;
  cache->heads = heads;
  const int pairs = cache->cap * cache->cap;
  for (int l = 0; l <= num_layers; ++l) {
    cache->h.emplace_back(cache->cap, d);
    cache->z.emplace_back(pairs, d);
  }
  for (const auto& layer : layers) {
    for (int p = 0; p < heads; ++p) {
      cache->ew3.emplace_back(pairs, layer->head_dim());
      cache->se.emplace_back(pairs, 1);
    }
  }
}

/// Copies layer l's running representations into the cache, edges
/// re-laid from dense (i*n + j) rows to padded (i*cap + j) rows.
void StoreLayer(const Matrix& h, const Matrix& z, int n, int l,
                LevelEncodeCache* cache) {
  const size_t row = sizeof(float) * static_cast<size_t>(n) * cache->hidden;
  std::memcpy(cache->h[l].data(), h.data(), row);
  for (int i = 0; i < n; ++i) {
    std::memcpy(cache->z[l].data() +
                    static_cast<size_t>(i) * cache->cap * cache->hidden,
                z.data() + static_cast<size_t>(i) * n * cache->hidden, row);
  }
}

}  // namespace

LevelEncoder::LevelEncoder(const ModelConfig& config, int continuous_dim,
                           Rng* rng)
    : use_graph_(config.use_graph_encoder) {
  feature_embed_ =
      std::make_unique<LevelFeatureEmbed>(config, continuous_dim, rng);
  AddChild("feature_embed", feature_embed_.get());
  input_proj_ = std::make_unique<nn::Linear>(
      config.hidden_dim + config.courier_dim, config.hidden_dim, rng);
  AddChild("input_proj", input_proj_.get());
  if (use_graph_) {
    for (int k = 0; k < config.num_layers; ++k) {
      const bool is_last = (k == config.num_layers - 1);
      layers_.push_back(std::make_unique<GatELayer>(config, is_last, rng));
      AddChild(StrFormat("gat%d", k), layers_.back().get());
    }
  } else {
    fwd_lstm_ = std::make_unique<nn::LstmCell>(config.hidden_dim,
                                               config.hidden_dim, rng);
    bwd_lstm_ = std::make_unique<nn::LstmCell>(config.hidden_dim,
                                               config.hidden_dim, rng);
    bilstm_proj_ = std::make_unique<nn::Linear>(2 * config.hidden_dim,
                                                config.hidden_dim, rng);
    AddChild("fwd_lstm", fwd_lstm_.get());
    AddChild("bwd_lstm", bwd_lstm_.get());
    AddChild("bilstm_proj", bilstm_proj_.get());
  }
}

EncodedLevel LevelEncoder::Encode(const graph::LevelGraph& level,
                                  const Tensor& global_embed,
                                  EncodePlan* plan) const {
  if (plan != nullptr && use_graph_ && !GradMode::enabled()) {
    return EncodeFast(level, global_embed, plan);
  }
  return EncodeLegacy(level, global_embed);
}

EncodedLevel LevelEncoder::EncodeLegacy(const graph::LevelGraph& level,
                                        const Tensor& global_embed) const {
  Tensor nodes = feature_embed_->EmbedNodes(level);
  // Concatenate the global/courier vector onto every node (§IV-B).
  nodes = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, level.n)));
  if (use_graph_) {
    Tensor edges = feature_embed_->EmbedEdges(level);
    return EncodeWithGat(nodes, edges, level.adjacency);
  }
  return {EncodeWithBiLstm(nodes), Tensor()};
}

EncodedLevel LevelEncoder::EncodeFast(const graph::LevelGraph& level,
                                      const Tensor& global_embed,
                                      EncodePlan* plan,
                                      LevelEncodeCache* cache) const {
  M2G_CHECK(use_graph_);
  M2G_CHECK(!GradMode::enabled());
  const int n = level.n;
  M2G_CHECK_GE(plan->max_nodes, n);
  // Embeddings and the input projection stay on the op layer: under
  // no-grad they already fold to constants, and they are O(n d^2) —
  // fusing them would not move the n^2 d^2 needle the GAT stack does.
  // Running representations, mutated in place across layers; the copies
  // draw from the pool and become the returned tensors' storage.
  Tensor nodes = feature_embed_->EmbedNodes(level);
  nodes = input_proj_->Forward(
      ConcatCols(nodes, BroadcastRows(global_embed, n)));
  Tensor edges = feature_embed_->EmbedEdges(level);
  Matrix h = nodes.value();
  Matrix z = edges.value();
  GatECapture capture;
  if (cache != nullptr) {
    FitCache(layers_, n, plan->hidden_dim, cache);
    StoreLayer(h, z, n, 0, cache);
    capture.block = cache->cap;
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    if (cache != nullptr) {
      capture.ew3.clear();
      capture.se.clear();
      for (int p = 0; p < cache->heads; ++p) {
        capture.ew3.push_back(cache->ew3[l * cache->heads + p].data());
        capture.se.push_back(cache->se[l * cache->heads + p].data());
      }
    }
    layers_[l]->ForwardFast(h, z, level.adjacency, plan,
                            cache != nullptr ? &capture : nullptr);
    // Residuals in place: the same elementwise ascending order as the
    // legacy Add's copy + AddInPlace, minus the copies.
    float* hd = h.data();
    const float* no = plan->node_out.data();
    for (size_t t = 0, nd = h.size(); t < nd; ++t) hd[t] += no[t];
    float* zd = z.data();
    const float* eo = plan->edge_out.data();
    for (size_t t = 0, nnd = z.size(); t < nnd; ++t) zd[t] += eo[t];
    if (cache != nullptr) StoreLayer(h, z, n, static_cast<int>(l) + 1, cache);
  }
  if (cache != nullptr) cache->n = n;
  return {Tensor::Constant(std::move(h)), Tensor::Constant(std::move(z))};
}

EncodedLevel LevelEncoder::EncodeWithGat(
    const Tensor& nodes, const Tensor& edges,
    const std::vector<bool>& adjacency) const {
  Tensor h = nodes;
  Tensor z = edges;
  for (const auto& layer : layers_) {
    GatEOutput out = layer->Forward(h, z, adjacency);
    // Residual connections (all layers keep width hidden_dim): attention
    // aggregation alone washes out node identity on these tiny dense
    // graphs, and the pointer decoder needs distinguishable nodes.
    h = Add(h, out.nodes);
    z = Add(z, out.edges);
  }
  return {h, z};
}

Tensor LevelEncoder::EncodeWithBiLstm(const Tensor& nodes) const {
  const int n = nodes.rows();
  std::vector<Tensor> fwd(n), bwd(n);
  nn::LstmState state = fwd_lstm_->InitialState();
  for (int i = 0; i < n; ++i) {
    state = fwd_lstm_->Forward(Row(nodes, i), state);
    fwd[i] = state.h;
  }
  state = bwd_lstm_->InitialState();
  for (int i = n - 1; i >= 0; --i) {
    state = bwd_lstm_->Forward(Row(nodes, i), state);
    bwd[i] = state.h;
  }
  std::vector<Tensor> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(ConcatCols(fwd[i], bwd[i]));
  }
  return bilstm_proj_->Forward(ConcatRows(rows));
}

}  // namespace m2g::core
