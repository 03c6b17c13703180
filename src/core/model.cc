#include "core/model.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "core/encode_plan.h"
#include "core/incremental_encode.h"
#include "graph/features.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/grad_mode.h"

namespace m2g::core {
namespace {

/// Mean L1 loss between per-node time predictions and (scaled) labels
/// (Eq. 39/40 inner sum).
Tensor TimeLoss(const std::vector<Tensor>& predictions,
                const std::vector<double>& labels_min, float scale) {
  M2G_CHECK_EQ(predictions.size(), labels_min.size());
  Tensor total = Tensor::Scalar(0.0f);
  for (size_t i = 0; i < predictions.size(); ++i) {
    total = Add(total,
                L1Loss(predictions[i],
                       static_cast<float>(labels_min[i]) / scale));
  }
  return Scale(total, 1.0f / static_cast<float>(predictions.size()));
}

/// Staleness policy: every k-th prediction through a session performs a
/// full re-encode even when a delta would apply, bounding how long any
/// cached representation chain can grow.
constexpr uint64_t kRefreshPeriod = 64;

obs::Counter& DeltaStepsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.delta_steps");
  return c;
}

obs::Counter& FullFallbacksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.full_fallbacks");
  return c;
}

/// Stops gradients: returns a constant copy (used by the two-step
/// ablation so time supervision cannot reach the shared encoder).
Tensor Detach(const Tensor& t) {
  return t.defined() ? Tensor::Constant(t.value()) : Tensor();
}

}  // namespace

M2g4Rtp::M2g4Rtp(const ModelConfig& config) : config_(config) {
  const Status config_status = ValidateConfig(config);
  M2G_CHECK_MSG(config_status.ok(), config_status.ToString().c_str());
  Rng rng(config.seed);
  global_embed_ = std::make_unique<GlobalFeatureEmbed>(config, &rng);
  AddChild("global_embed", global_embed_.get());
  location_encoder_ = std::make_unique<LevelEncoder>(
      config, graph::kLocationContinuousDim, &rng);
  AddChild("location_encoder", location_encoder_.get());

  const int d = config.hidden_dim;
  const int loc_in =
      config.use_aoi_level ? d + config.pos_enc_dim + 1 : d;
  if (config.use_aoi_level) {
    aoi_encoder_ = std::make_unique<LevelEncoder>(
        config, graph::kAoiContinuousDim, &rng);
    AddChild("aoi_encoder", aoi_encoder_.get());
    aoi_route_decoder_ = std::make_unique<AttentionRouteDecoder>(
        d, config.courier_dim, config.lstm_hidden_dim, &rng);
    AddChild("aoi_route_decoder", aoi_route_decoder_.get());
    aoi_sort_lstm_ = std::make_unique<SortLstm>(
        d, config.pos_enc_dim, config.pos_enc_base,
        config.lstm_hidden_dim, &rng,
        config.sort_lstm_edge_input ? d : 0);
    AddChild("aoi_sort_lstm", aoi_sort_lstm_.get());
  }
  location_route_decoder_ = std::make_unique<AttentionRouteDecoder>(
      loc_in, config.courier_dim, config.lstm_hidden_dim, &rng);
  AddChild("location_route_decoder", location_route_decoder_.get());
  location_sort_lstm_ = std::make_unique<SortLstm>(
      loc_in, config.pos_enc_dim, config.pos_enc_base,
      config.lstm_hidden_dim, &rng,
      config.sort_lstm_edge_input ? d : 0);
  AddChild("location_sort_lstm", location_sort_lstm_.get());
  uncertainty_ = std::make_unique<UncertaintyLoss>();
  AddChild("uncertainty", uncertainty_.get());
}

Tensor M2g4Rtp::BuildLocationInputs(
    const Tensor& loc_nodes, const std::vector<int>& loc_to_aoi,
    const std::vector<int>& aoi_route,
    const std::vector<Tensor>& aoi_times) const {
  if (!config_.use_aoi_level) return loc_nodes;
  const int n = loc_nodes.rows();
  // Position of each AOI node in the AOI route.
  std::vector<int> aoi_pos(aoi_route.size(), 0);
  for (size_t s = 0; s < aoi_route.size(); ++s) {
    aoi_pos[aoi_route[s]] = static_cast<int>(s);
  }
  std::vector<Tensor> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int aoi_node = loc_to_aoi[i];
    Tensor pos = Tensor::Constant(SortLstm::PositionalEncoding(
        aoi_pos[aoi_node] + 1, config_.pos_enc_dim, config_.pos_enc_base));
    // Eq. 34: x_in = [x~ || p_aoi || y_aoi].
    rows.push_back(ConcatCols(ConcatCols(Row(loc_nodes, i), pos),
                              aoi_times[aoi_node]));
  }
  return ConcatRows(rows);
}

Tensor M2g4Rtp::ComputeLoss(const synth::Sample& sample,
                            LossBreakdown* breakdown,
                            Rng* guidance_rng) const {
  const graph::MultiLevelGraph g =
      BuildMultiLevelGraph(sample, config_.graph);
  Tensor u = global_embed_->Embed(sample);
  EncodedLevel loc_enc = location_encoder_->Encode(g.location, u);
  const Tensor& x_l = loc_enc.nodes;

  Tensor aoi_route_loss, aoi_time_loss;
  std::vector<int> guide_route;
  std::vector<Tensor> guide_times;
  if (config_.use_aoi_level) {
    EncodedLevel aoi_enc = aoi_encoder_->Encode(g.aoi, u);
    const Tensor& x_a = aoi_enc.nodes;
    aoi_route_loss = aoi_route_decoder_->TeacherForcedLoss(
        x_a, u, sample.aoi_route_label);
    // SortLSTM trains on the teacher route; at inference it follows the
    // predicted route (§IV-C).
    Tensor x_a_for_time = config_.two_step ? Detach(x_a) : x_a;
    Tensor z_a_for_time =
        config_.two_step ? Detach(aoi_enc.edges) : aoi_enc.edges;
    std::vector<Tensor> aoi_times = aoi_sort_lstm_->Forward(
        x_a_for_time, sample.aoi_route_label, z_a_for_time);
    aoi_time_loss = TimeLoss(aoi_times, sample.aoi_time_label_min,
                             config_.time_scale_minutes);
    // Guidance for the location level (Eq. 34). Scheduled sampling: with
    // probability guidance_sampling_prob_ the guide is the model's own
    // greedy AOI decode — exactly the inference path, so the location
    // decoder sees no train/test mismatch — otherwise the teacher route
    // (faster early optimization). Gradients still flow through the
    // guide times into the shared encoder (unless two-step).
    Rng* grng = guidance_rng != nullptr ? guidance_rng : &guidance_rng_;
    const bool predicted_guide =
        grng->NextDouble() < guidance_sampling_prob_;
    guide_route = predicted_guide
                      ? aoi_route_decoder_->DecodeGreedy(x_a, u)
                      : sample.aoi_route_label;
    guide_times =
        aoi_sort_lstm_->Forward(x_a_for_time, guide_route, z_a_for_time);
    if (config_.two_step) {
      for (Tensor& t : guide_times) t = Detach(t);
    }
  }

  Tensor x_in = BuildLocationInputs(x_l, sample.loc_to_aoi, guide_route,
                                    guide_times);
  Tensor loc_route_loss = location_route_decoder_->TeacherForcedLoss(
      x_in, u, sample.route_label);
  Tensor x_in_for_time = config_.two_step ? Detach(x_in) : x_in;
  Tensor z_l_for_time =
      config_.two_step ? Detach(loc_enc.edges) : loc_enc.edges;
  std::vector<Tensor> loc_times = location_sort_lstm_->Forward(
      x_in_for_time, sample.route_label, z_l_for_time);
  Tensor loc_time_loss = TimeLoss(loc_times, sample.time_label_min,
                                  config_.time_scale_minutes);

  Tensor total =
      config_.use_uncertainty_weighting
          ? uncertainty_->Combine(aoi_route_loss, loc_route_loss,
                                  aoi_time_loss, loc_time_loss)
          : FixedWeightCombine(aoi_route_loss, loc_route_loss,
                               aoi_time_loss, loc_time_loss);
  if (breakdown != nullptr) {
    breakdown->aoi_route =
        aoi_route_loss.defined() ? aoi_route_loss.item() : 0;
    breakdown->location_route = loc_route_loss.item();
    breakdown->aoi_time = aoi_time_loss.defined() ? aoi_time_loss.item() : 0;
    breakdown->location_time = loc_time_loss.item();
    breakdown->total = total.item();
  }
  return total;
}

RtpPrediction M2g4Rtp::Predict(const synth::Sample& sample) const {
  return PredictIncremental(sample, nullptr);
}

RtpPrediction M2g4Rtp::PredictIncremental(const synth::Sample& sample,
                                          IncrementalState* state,
                                          IncrementalResult* result) const {
  // Per-stage spans cover the Figure 7 serving pipeline after feature
  // extraction. Instrumentation is observe-only: the numeric operations
  // and their order are exactly the uninstrumented path (the AOI encode
  // is hoisted into the encode scope, but it reads and writes nothing
  // the location encode touches). Multi-level requests record two spans
  // each for route_decode and eta_head — one per level.
  static obs::Histogram& graph_hist =
      obs::StageHistogram("serve.stage.graph_build.ms");
  static obs::Histogram& encode_hist =
      obs::StageHistogram("serve.stage.encode.ms");
  IncrementalResult local;
  IncrementalResult* res = result != nullptr ? result : &local;
  *res = IncrementalResult();

  graph::MultiLevelGraph g;
  {
    obs::TraceSpan span("serve.stage.graph_build.ms", &graph_hist);
    g = BuildMultiLevelGraph(sample, config_.graph);
  }
  Tensor u;
  EncodedLevel loc_enc;
  EncodedLevel aoi_enc;
  {
    obs::TraceSpan span("serve.stage.encode.ms", &encode_hist);
    std::optional<EncodePlan> plan = MakeEncodePlan(g);
    EncodePlan* plan_ptr = plan.has_value() ? &*plan : nullptr;
    // Sessions ride on the fused encode: with no state, or without a plan
    // (grad mode, the BiLSTM ablation), this is the stateless encode.
    const bool sessions = state != nullptr && plan_ptr != nullptr;
    u = global_embed_->Embed(sample);

    IncrementalFallback why = IncrementalFallback::kNone;
    graph::LevelGraphDelta loc_delta, aoi_delta;
    if (!sessions) {
      why = IncrementalFallback::kDisabled;
    } else if (!state->warm) {
      why = IncrementalFallback::kCold;
    } else if (state->u.size() != u.value().size() ||
               std::memcmp(state->u.data(), u.value().data(),
                           sizeof(float) * state->u.size()) != 0) {
      why = IncrementalFallback::kGlobalChanged;
    } else if (state->deltas_since_full + 1 >= kRefreshPeriod) {
      why = IncrementalFallback::kRefresh;
    } else {
      loc_delta = graph::DiffLevelGraph(state->graph.location, g.location);
      if (loc_delta.kind == graph::LevelDeltaKind::kStructural) {
        why = IncrementalFallback::kStructural;
      } else if (g.location.n > state->location.cap) {
        why = IncrementalFallback::kCapacity;
      }
      if (why == IncrementalFallback::kNone && config_.use_aoi_level) {
        aoi_delta = graph::DiffLevelGraph(state->graph.aoi, g.aoi);
        if (aoi_delta.kind == graph::LevelDeltaKind::kStructural) {
          why = IncrementalFallback::kStructural;
        } else if (g.aoi.n > state->aoi.cap) {
          why = IncrementalFallback::kCapacity;
        }
      }
    }
    if (why == IncrementalFallback::kNone) {
      static obs::Histogram& delta_hist =
          obs::StageHistogram("encode.delta.ms");
      obs::TraceSpan delta_span("encode.delta.ms", &delta_hist);
      std::optional<EncodedLevel> le = location_encoder_->EncodeDelta(
          g.location, state->graph.location, loc_delta, u, plan_ptr,
          &state->location);
      std::optional<EncodedLevel> ae;
      bool ok = le.has_value();
      if (ok && config_.use_aoi_level) {
        ae = aoi_encoder_->EncodeDelta(g.aoi, state->graph.aoi, aoi_delta,
                                       u, plan_ptr, &state->aoi);
        ok = ae.has_value();
      }
      if (ok) {
        loc_enc = std::move(*le);
        if (config_.use_aoi_level) aoi_enc = std::move(*ae);
        state->graph = std::move(g);
        ++state->deltas_since_full;
        DeltaStepsCounter().Increment();
        res->delta = true;
      } else {
        why = IncrementalFallback::kDirtySpread;
      }
    }
    if (!res->delta) {
      res->fallback = why;
      if (why != IncrementalFallback::kDisabled &&
          why != IncrementalFallback::kCold) {
        FullFallbacksCounter().Increment();
      }
      if (sessions) {
        // Full encode that re-warms the session's caches.
        loc_enc = location_encoder_->EncodeFast(g.location, u, plan_ptr,
                                                &state->location);
        if (config_.use_aoi_level) {
          aoi_enc =
              aoi_encoder_->EncodeFast(g.aoi, u, plan_ptr, &state->aoi);
        }
        state->u = u.value();
        state->graph = std::move(g);
        state->deltas_since_full = 0;
        state->warm = true;
      } else {
        loc_enc = location_encoder_->Encode(g.location, u, plan_ptr);
        if (config_.use_aoi_level) {
          aoi_enc = aoi_encoder_->Encode(g.aoi, u, plan_ptr);
        }
      }
    }
  }
  return DecodeWithEncodings(sample, u, loc_enc, aoi_enc);
}

RtpPrediction M2g4Rtp::DecodeWithEncodings(const synth::Sample& sample,
                                           const Tensor& u,
                                           const EncodedLevel& loc_enc,
                                           const EncodedLevel& aoi_enc) const {
  static obs::Histogram& decode_hist =
      obs::StageHistogram("serve.stage.route_decode.ms");
  static obs::Histogram& eta_hist =
      obs::StageHistogram("serve.stage.eta_head.ms");
  const Tensor& x_l = loc_enc.nodes;

  RtpPrediction pred;
  std::vector<Tensor> aoi_times;
  if (config_.use_aoi_level) {
    const Tensor& x_a = aoi_enc.nodes;
    {
      obs::TraceSpan span("serve.stage.route_decode.ms", &decode_hist);
      pred.aoi_route =
          aoi_route_decoder_->DecodeBeam(x_a, u, config_.beam_width);
    }
    obs::TraceSpan span("serve.stage.eta_head.ms", &eta_hist);
    aoi_times =
        aoi_sort_lstm_->Forward(x_a, pred.aoi_route, aoi_enc.edges);
    pred.aoi_times_min.resize(aoi_times.size());
    for (size_t k = 0; k < aoi_times.size(); ++k) {
      pred.aoi_times_min[k] = std::max(
          0.0, static_cast<double>(aoi_times[k].item()) *
                   config_.time_scale_minutes);
    }
  }
  Tensor x_in;
  {
    obs::TraceSpan span("serve.stage.route_decode.ms", &decode_hist);
    x_in = BuildLocationInputs(x_l, sample.loc_to_aoi, pred.aoi_route,
                               aoi_times);
    pred.location_route =
        location_route_decoder_->DecodeBeam(x_in, u, config_.beam_width);
  }
  obs::TraceSpan span("serve.stage.eta_head.ms", &eta_hist);
  std::vector<Tensor> loc_times = location_sort_lstm_->Forward(
      x_in, pred.location_route, loc_enc.edges);
  pred.location_times_min.resize(loc_times.size());
  for (size_t i = 0; i < loc_times.size(); ++i) {
    pred.location_times_min[i] =
        std::max(0.0, static_cast<double>(loc_times[i].item()) *
                          config_.time_scale_minutes);
  }
  return pred;
}

std::optional<EncodePlan> M2g4Rtp::MakeEncodePlan(
    const graph::MultiLevelGraph& g) const {
  // One pool-backed plan serves both levels' fused encodes. Under grad
  // mode or the BiLSTM ablation Encode dispatches to the legacy path
  // instead (same bits either way), so no plan is built.
  if (!config_.use_graph_encoder || GradMode::enabled()) return std::nullopt;
  const int max_n = config_.use_aoi_level ? std::max(g.location.n, g.aoi.n)
                                          : g.location.n;
  return std::optional<EncodePlan>(std::in_place, max_n, config_.hidden_dim);
}

std::vector<RtpPrediction> M2g4Rtp::PredictBatch(
    const std::vector<const synth::Sample*>& samples, int) const {
  std::vector<RtpPrediction> out;
  out.reserve(samples.size());
  for (const synth::Sample* sample : samples) out.push_back(Predict(*sample));
  return out;
}

Status M2g4Rtp::Save(const std::string& path) const {
  return nn::SaveModule(*this, path);
}

Status M2g4Rtp::Load(const std::string& path) {
  return nn::LoadModule(this, path);
}

}  // namespace m2g::core
