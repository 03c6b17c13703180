#ifndef M2G_CORE_ENCODER_H_
#define M2G_CORE_ENCODER_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/feature_embed.h"
#include "core/gat_e.h"
#include "nn/lstm_cell.h"

namespace m2g::core {

struct LevelEncodeCache;  // core/incremental_encode.h

/// Encoder for one graph level: raw features -> embeddings (Eq. 18-19)
/// -> K GAT-e layers (Eq. 20-26) -> node representations x~.
///
/// The global feature vector is concatenated onto every node embedding
/// (§IV-B "Global Feature") and projected back to hidden_dim before the
/// first layer.
///
/// With `use_graph_encoder == false` (the "w/o graph" ablation) the GAT-e
/// stack is replaced by a bidirectional LSTM over the node sequence, as in
/// §V-E.
/// Encoder output: node representations plus (for the GAT-e variant) the
/// final edge representations z (n*n, hidden_dim). `edges` is undefined
/// for the BiLSTM ablation, which has no edge stream.
struct EncodedLevel {
  Tensor nodes;
  Tensor edges;
};

class LevelEncoder : public nn::Module {
 public:
  LevelEncoder(const ModelConfig& config, int continuous_dim, Rng* rng);

  /// Encodes one level. With a non-null `plan`, the GAT-e variant
  /// configured, and gradients disabled on the calling thread, the
  /// fused no-grad fast path (EncodeFast) runs through the plan's
  /// scratch; every other combination dispatches to EncodeLegacy. The
  /// two paths are bitwise-identical (encode_parity_test).
  EncodedLevel Encode(const graph::LevelGraph& level,
                      const Tensor& global_embed,
                      EncodePlan* plan = nullptr) const;

  /// Reference autograd path: the training encode, and the baseline the
  /// parity suite compares the fast path against.
  EncodedLevel EncodeLegacy(const graph::LevelGraph& level,
                            const Tensor& global_embed) const;

  /// Fused no-grad fast path: embeddings and the input projection run
  /// through the (constant-folded) ops, then every GAT-e layer through
  /// GatELayer::ForwardFast with in-place residuals on pool-backed
  /// buffers: zero autograd nodes and zero (n^2, d) op temporaries.
  /// Requires GradMode disabled and the GAT-e variant.
  ///
  /// With a `cache`, the same forward also warms an encode session: the
  /// cache is sized (grown geometrically) and receives every layer's node
  /// and edge representations plus the per-head z*W3 / s_edge
  /// intermediates. The returned encodings do not depend on `cache`.
  EncodedLevel EncodeFast(const graph::LevelGraph& level,
                          const Tensor& global_embed, EncodePlan* plan,
                          LevelEncodeCache* cache = nullptr) const;

  /// EncodeFast(level, global_embed, plan, cache). Kept only because the
  /// benchmark harness (perfbench/) calls it by this name.
  EncodedLevel EncodeFastCached(const graph::LevelGraph& level,
                                const Tensor& global_embed,
                                EncodePlan* plan,
                                LevelEncodeCache* cache) const {
    return EncodeFast(level, global_embed, plan, cache);
  }

  /// Incremental re-encode against a warm cache: `delta` describes how
  /// `level` evolved from `prev` (the graph `cache` encodes), and only
  /// the attention rows / edge pairs whose inputs or masks changed are
  /// recomputed per GAT-e layer. On success the cache is advanced to
  /// `level` and the returned encodings are bitwise-identical to
  /// EncodeFast(level, ...). Returns nullopt — cache contents then
  /// unspecified, caller must full-encode — when the delta is not
  /// single-node-explainable, exceeds the cache capacity, or dirties
  /// more than half the nodes (a delta would cost more than it saves).
  /// Defined in core/incremental_encode.cc.
  std::optional<EncodedLevel> EncodeDelta(const graph::LevelGraph& level,
                                          const graph::LevelGraph& prev,
                                          const graph::LevelGraphDelta& delta,
                                          const Tensor& global_embed,
                                          EncodePlan* plan,
                                          LevelEncodeCache* cache) const;

 private:
  EncodedLevel EncodeWithGat(const Tensor& nodes, const Tensor& edges,
                             const std::vector<bool>& adjacency) const;
  Tensor EncodeWithBiLstm(const Tensor& nodes) const;

  bool use_graph_;
  std::unique_ptr<LevelFeatureEmbed> feature_embed_;
  std::unique_ptr<nn::Linear> input_proj_;  // (hidden+courier) -> hidden
  std::vector<std::unique_ptr<GatELayer>> layers_;
  // BiLSTM fallback.
  std::unique_ptr<nn::LstmCell> fwd_lstm_;
  std::unique_ptr<nn::LstmCell> bwd_lstm_;
  std::unique_ptr<nn::Linear> bilstm_proj_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_ENCODER_H_
