#ifndef M2G_CORE_SORT_LSTM_H_
#define M2G_CORE_SORT_LSTM_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"

namespace m2g::core {

/// SortLSTM (§IV-C, Eq. 32-33 and 36): consumes node representations
/// *sorted by the (predicted or teacher) route*, each concatenated with a
/// sinusoidal positional encoding of its route position, and emits one
/// arrival-time scalar per step. Outputs are not forced monotone — the
/// paper keeps that freedom as an error-correction mechanism against wrong
/// route predictions.
class SortLstm : public nn::Module {
 public:
  /// Each step input ends with the encoder's `edge_dim`-wide
  /// representation of the edge *traversed into* the step's node
  /// (z_{prev,cur}) — the GAT-e edge stream explicitly encodes pairwise
  /// distance and deadline gaps (Eq. 14), which is exactly the per-leg
  /// information an arrival-time integrator needs. Step 0 uses the node's
  /// self-edge. `edge_dim` must be positive.
  SortLstm(int node_dim, int pos_dim, float pos_base, int lstm_hidden,
           Rng* rng, int edge_dim);

  /// `route[s]` = node visited s-th. Returns predictions indexed by NODE
  /// (not by step): out[node] is that node's predicted arrival time, in
  /// the model's scaled units. `edges` is the (n*n, edge_dim) encoder
  /// edge stream; pass an undefined Tensor to feed zeros (e.g. the
  /// BiLSTM ablation, which has no edge representations).
  ///
  /// With gradients enabled this is the autograd op chain (the training
  /// path). With gradients disabled on the calling thread it dispatches
  /// to ForwardRaw, which is bitwise-identical (decode_parity_test).
  std::vector<Tensor> Forward(const Tensor& nodes,
                              const std::vector<int>& route,
                              const Tensor& edges = Tensor()) const;

  /// Transformer-style sinusoidal encoding of route position `pos`
  /// (1-based, as in the paper): its `dim` values written into `out`.
  static void WritePositionalEncoding(int pos, int dim, float base,
                                      float* out);

  /// Positions 1..kPositionTableRows have their encodings tabled at
  /// construction; the no-grad paths copy those rows.
  static constexpr int kPositionTableRows = 64;

  /// WritePositionalEncoding(pos, pos_dim, pos_base, out) for this
  /// head's (pos_dim, pos_base): a copy of the table row for pos in
  /// [1, kPositionTableRows], computed directly beyond it. Same bytes
  /// either way; the table saves the double pow/sin/cos per call.
  void WritePosition(int pos, float* out) const;

 private:
  /// The no-grad ETA head: per step, one (1, node + pos + edge) input
  /// row is filled in place (node row, WritePosition, edge row or
  /// zeros), advanced by LstmCell::StepRawBatch and read out by the
  /// head's AffineRaw. No autograd nodes; `edges` may be null.
  std::vector<Tensor> ForwardRaw(const Matrix& nodes,
                                 const std::vector<int>& route,
                                 const Matrix* edges) const;

  int pos_dim_;
  float pos_base_;
  int edge_dim_;
  /// Row pos - 1 is the encoding of pos, kPositionTableRows rows.
  std::vector<float> pos_table_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_SORT_LSTM_H_
