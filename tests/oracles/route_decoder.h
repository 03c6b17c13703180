#ifndef M2G_TESTS_ORACLES_ROUTE_DECODER_H_
#define M2G_TESTS_ORACLES_ROUTE_DECODER_H_

#include <vector>

#include "core/route_decoder.h"

namespace m2g::core {

/// The per-step autograd decoders that AttentionRouteDecoder's fast paths
/// must match bit for bit (decode_parity_test). Every step recomputes the
/// key projection nodes * W6 and, when decoding, runs the full op chain;
/// the weights are read through the decoder's friend declaration.
class RouteDecoderOracle {
 public:
  explicit RouteDecoderOracle(const AttentionRouteDecoder& decoder)
      : d_(decoder) {}

  /// (1, n) pointer logits for the current state, recomputing the key
  /// projection.
  Tensor StepLogits(const Tensor& nodes, const Tensor& courier,
                    const nn::LstmState& state) const;

  /// The fast path's (1, n) scores for LSTM output row `h`: a fresh
  /// KeyCache, the decoder's query row and the fused score kernel.
  Matrix StepScores(const Tensor& nodes, const Tensor& courier,
                    const Matrix& h) const;

  /// TeacherForcedLoss with the key projection recomputed every step.
  Tensor TeacherForcedLossLegacy(const Tensor& nodes, const Tensor& courier,
                                 const std::vector<int>& label_route) const;

  /// DecodeGreedy and DecodeBeam as per-step op chains.
  std::vector<int> DecodeGreedyLegacy(const Tensor& nodes,
                                      const Tensor& courier) const;
  std::vector<int> DecodeBeamLegacy(const Tensor& nodes,
                                    const Tensor& courier,
                                    int beam_width) const;

 private:
  const AttentionRouteDecoder& d_;
};

}  // namespace m2g::core

#endif  // M2G_TESTS_ORACLES_ROUTE_DECODER_H_
