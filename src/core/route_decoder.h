#ifndef M2G_CORE_ROUTE_DECODER_H_
#define M2G_CORE_ROUTE_DECODER_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"

namespace m2g::core {

/// Attention-pointer route decoder (Eq. 27-31 at AOI level; Eq. 35 at
/// location level — identical structure with a wider node input). An LSTM
/// aggregates the already-emitted prefix into the current state h_{s-1};
/// the pointer scores every unvisited node j with
///   o_s^j = v^T tanh(W6 x_j + W7 [h_{s-1} || u])
/// and visited nodes are masked to -inf (Eq. 29-30).
///
/// Decoding runs a raw fast path (plain matrix math, no autograd): the
/// node key projection `keys = nodes W6` — which the naive loop recomputes
/// every step, and beam search once per hypothesis per step — is built
/// once per request into a KeyCache, live beam hypotheses advance through
/// one batched LSTM gate kernel per step, and scores come from a fused
/// tanh(keys + q)·v kernel with no (n, d) temporaries. Routes are
/// bitwise-identical to the per-step-recompute decoders, which live in
/// the test-only oracle library (tests/oracles/route_decoder.h) and read
/// the weights through the one friend declaration below (see
/// docs/architecture.md, "Decode fast path").
class AttentionRouteDecoder : public nn::Module {
 public:
  AttentionRouteDecoder(int node_dim, int courier_dim, int lstm_hidden,
                        Rng* rng);

  /// Training pass: teacher-forced decoding along `label_route`; returns
  /// the mean per-step masked cross-entropy (Eq. 37/38 inner sum). The
  /// step-invariant `MatMul(nodes, w6_)` is hoisted out of the step loop
  /// as a shared forward value (MatMulWithValue); the per-step graph is
  /// unchanged, so values and gradients stay bitwise-identical to the
  /// per-step-recompute loss while the forward drops n-1 key projections.
  Tensor TeacherForcedLoss(const Tensor& nodes, const Tensor& courier,
                           const std::vector<int>& label_route) const;

  /// Inference pass: greedy argmax decoding (Eq. 31) on the fast path.
  /// Returns a permutation of {0..n-1}.
  std::vector<int> DecodeGreedy(const Tensor& nodes,
                                const Tensor& courier) const;

  /// Beam-search decoding (extension beyond the paper's greedy Eq. 31):
  /// keeps the `beam_width` partial routes with the highest total
  /// log-probability, advancing all live hypotheses through one batched
  /// LSTM step. Width 1 is exactly DecodeGreedy. Equal-score expansions
  /// break ties by (hypothesis, node) so the kept beam is deterministic
  /// on every platform.
  std::vector<int> DecodeBeam(const Tensor& nodes, const Tensor& courier,
                              int beam_width) const;

 private:
  /// The parity suite's reference decoders.
  friend class RouteDecoderOracle;

  /// Request-scoped decode cache: the step-invariant half of the pointer
  /// score. `keys` and `courier` draw from the active arena and `nodes`
  /// is borrowed, so a cache must not outlive the request's ArenaGuard
  /// scope or the node tensor it was built from.
  struct KeyCache {
    Matrix keys;                    // (n, node_dim) = nodes * W6
    Matrix courier;                 // (1, courier_dim) copy of u
    const Matrix* nodes = nullptr;  // borrowed node embeddings
  };

  KeyCache BuildKeyCache(const Tensor& nodes, const Tensor& courier) const;

  /// (1, n) pointer logits for the current state (Eq. 29):
  /// v^T tanh(keys + W7 [h || u]), with the key projection's value
  /// `keys_value` = nodes * W6 supplied by the caller and rebuilt into
  /// the step's graph via MatMulWithValue.
  Tensor StepLogits(const Tensor& nodes, const Tensor& courier,
                    const nn::LstmState& state,
                    const Matrix& keys_value) const;

  /// q = [h_row || u] * W7 written into q_out (node_dim floats).
  void QueryRow(const KeyCache& cache, const float* h_row,
                float* q_out) const;

  int node_dim_;
  int courier_dim_;
  int lstm_hidden_;
  std::unique_ptr<nn::LstmCell> lstm_;
  Tensor start_token_;  // learned first LSTM input
  Tensor w6_;           // (node_dim, node_dim)
  Tensor w7_;           // (lstm_hidden + courier_dim, node_dim)
  Tensor v_;            // (node_dim, 1)
};

}  // namespace m2g::core

#endif  // M2G_CORE_ROUTE_DECODER_H_
