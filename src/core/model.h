#ifndef M2G_CORE_MODEL_H_
#define M2G_CORE_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/route_decoder.h"
#include "core/sort_lstm.h"
#include "core/uncertainty_loss.h"

namespace m2g::core {

struct IncrementalState;   // core/incremental_encode.h
struct IncrementalResult;  // core/incremental_encode.h

/// Joint route-and-time prediction for one request (Eq. 10): location
/// route & per-location arrival gaps, plus the AOI-level outputs when the
/// model runs multi-level.
struct RtpPrediction {
  std::vector<int> location_route;          // permutation of locations
  std::vector<double> location_times_min;   // indexed by location node
  std::vector<int> aoi_route;               // empty if single-level
  std::vector<double> aoi_times_min;        // indexed by AOI node
};

/// Per-task loss values of one training pass (for logging and the
/// uncertainty tests).
struct LossBreakdown {
  float aoi_route = 0;
  float location_route = 0;
  float aoi_time = 0;
  float location_time = 0;
  float total = 0;
};

/// M2G4RTP (§IV): multi-level GAT-e encoder + multi-task decoders with
/// AOI-guided location decoding and homoscedastic-uncertainty loss
/// weighting. Ablation variants are configured through ModelConfig.
class M2g4Rtp : public nn::Module {
 public:
  explicit M2g4Rtp(const ModelConfig& config);

  /// Teacher-forced multi-task training loss for one sample (Eq. 37-41).
  /// The returned scalar tensor backpropagates into all four task heads
  /// (subject to the ablation switches). `guidance_rng` supplies the
  /// scheduled-sampling draw; the Trainer passes each sample its own
  /// stream, so concurrent calls are race-free and the result does not
  /// depend on the thread count. With a null stream there is no draw: the
  /// guide is the predicted AOI route iff guidance_sampling_prob() >= 1,
  /// which is what a draw gives at probability 0 or 1.
  Tensor ComputeLoss(const synth::Sample& sample,
                     LossBreakdown* breakdown = nullptr,
                     Rng* guidance_rng = nullptr) const;

  /// Greedy joint prediction (§IV-D): PredictIncremental with no
  /// session state.
  RtpPrediction Predict(const synth::Sample& sample) const;

  /// The one predict pipeline: graph build, encode, then beam decode and
  /// ETA heads. A null `state` is the stateless encode (Predict). With a
  /// per-courier `state`, when the request's level graphs differ from the
  /// cached ones by at most one inserted/removed node per level (and the
  /// global embedding is unchanged), only the affected GAT-e attention
  /// rows and edge pairs are re-encoded (LevelEncoder::EncodeDelta);
  /// otherwise (cold state, structural diff, capacity overflow, the
  /// periodic refresh) it runs the full encode and rewarms the state.
  /// Under grad mode or the BiLSTM ablation the state stays untouched.
  /// The prediction is bitwise-identical to Predict(sample) in every case
  /// (incremental_encode_test). Records encode.delta_steps /
  /// encode.full_fallbacks and the encode.delta.ms span. Not thread-safe
  /// per state: callers serialize on the owning session.
  RtpPrediction PredictIncremental(const synth::Sample& sample,
                                   IncrementalState* state,
                                   IncrementalResult* result =
                                       nullptr) const;

  /// Predict(*samples[s]) for every sample, in order. A group of
  /// requests costs what its members cost one by one: serving batches
  /// admit requests together but run each member's Predict on the
  /// submitting thread (serve::BatchScheduler). The int argument is
  /// unused; it keeps existing two-argument callers compiling.
  std::vector<RtpPrediction> PredictBatch(
      const std::vector<const synth::Sample*>& samples, int = 0) const;

  const ModelConfig& config() const { return config_; }
  const UncertaintyLoss& uncertainty() const { return *uncertainty_; }

  /// Scheduled sampling for the AOI->location guidance during training:
  /// with probability `p` the guidance (AOI route positions + times fed
  /// into Eq. 34) comes from the model's own greedy AOI decode — exactly
  /// the inference path — and otherwise from the teacher route. The
  /// Trainer anneals this from 0 (fast early learning) to 1 (no
  /// exposure bias at the end). Default 1.
  void set_guidance_sampling_prob(float p) { guidance_sampling_prob_ = p; }
  float guidance_sampling_prob() const { return guidance_sampling_prob_; }

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Location-decoder inputs x_in (Eq. 34): node representation, plus the
  /// positional encoding of its AOI within `aoi_route` and the (scaled)
  /// AOI arrival prediction, when multi-level. With gradients enabled
  /// this is the autograd op chain; with gradients disabled on the
  /// calling thread the rows are written straight into one constant,
  /// bitwise-identical (decode_parity_test).
  Tensor BuildLocationInputs(const Tensor& loc_nodes,
                             const std::vector<int>& loc_to_aoi,
                             const std::vector<int>& aoi_route,
                             const std::vector<Tensor>& aoi_times) const;

 private:
  /// The request's encode scratch: a plan sized to the larger level when
  /// the fused no-grad encode applies (GAT-e encoder, gradients disabled
  /// on this thread), nullopt when Encode dispatches to EncodeLegacy.
  std::optional<EncodePlan> MakeEncodePlan(
      const graph::MultiLevelGraph& g) const;

  /// PredictIncremental's decode + ETA tail: beam decode and SortLSTM
  /// heads over already-encoded levels, with the
  /// serve.stage.route_decode/eta_head spans.
  RtpPrediction DecodeWithEncodings(const synth::Sample& sample,
                                    const Tensor& u,
                                    const EncodedLevel& loc_enc,
                                    const EncodedLevel& aoi_enc) const;

  ModelConfig config_;
  float guidance_sampling_prob_ = 1.0f;
  std::unique_ptr<GlobalFeatureEmbed> global_embed_;
  std::unique_ptr<LevelEncoder> location_encoder_;
  std::unique_ptr<LevelEncoder> aoi_encoder_;            // multi-level only
  std::unique_ptr<AttentionRouteDecoder> aoi_route_decoder_;
  std::unique_ptr<SortLstm> aoi_sort_lstm_;
  std::unique_ptr<AttentionRouteDecoder> location_route_decoder_;
  std::unique_ptr<SortLstm> location_sort_lstm_;
  std::unique_ptr<UncertaintyLoss> uncertainty_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_MODEL_H_
