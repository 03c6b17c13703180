#ifndef M2G_BASELINES_FDNET_H_
#define M2G_BASELINES_FDNET_H_

#include <memory>

#include "baselines/deep_common.h"
#include "nn/lstm_cell.h"

namespace m2g::baselines {

/// FDNET (§V-B / [1]): the only prior route&time model. An LSTM-based RNN
/// encoder over the unvisited locations feeds an attention route decoder;
/// a Wide&Deep network, trained in a *second stage* on the frozen route
/// model's outputs, predicts arrival times. The sequential encoder (which
/// must impose an arbitrary order on an unordered set) and the two-stage
/// training are exactly the weaknesses the paper's Table III/IV expose.
class Fdnet : public RouteBaseline {
 public:
  explicit Fdnet(const DeepBaselineConfig& config);

  Tensor EncodeSample(const synth::Sample& sample) const override;

 private:
  /// Wide&Deep time head: wide linear part + deep MLP part over the
  /// route-derived features, summed.
  class WideDeepTimeHead : public PluggedTimeHead {
   public:
    WideDeepTimeHead(const Config& config, Rng* rng);

   private:
    Tensor Forward(const Tensor& features) const override;

    std::unique_ptr<nn::Linear> wide_;
    std::unique_ptr<nn::Mlp> deep_;
  };

  std::unique_ptr<nn::LstmCell> encoder_lstm_;
  std::unique_ptr<nn::Linear> encoder_proj_;
};

}  // namespace m2g::baselines

#endif  // M2G_BASELINES_FDNET_H_
