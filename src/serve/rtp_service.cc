#include "serve/rtp_service.h"

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental_encode.h"
#include "obs/trace.h"
#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g::serve {
namespace {

/// Wide-event names of core::IncrementalFallback, indexed by its value.
constexpr const char* kFallbackNames[] = {
    "none",       "disabled", "cold",    "global_changed",
    "structural", "capacity", "refresh", "dirty_spread"};
static_assert(std::size(kFallbackNames) ==
              static_cast<size_t>(core::IncrementalFallback::kDirtySpread) + 1);

/// encode.fallback.<reason> for a request that did not take the delta
/// path. All reasons register together, so each exports (at zero) once
/// sessions serve.
obs::Counter& FallbackCounter(core::IncrementalFallback why) {
  static const std::vector<obs::Counter*> counters = [] {
    std::vector<obs::Counter*> all(1, nullptr);  // kNone is no fallback
    for (size_t k = 1; k < std::size(kFallbackNames); ++k) {
      all.push_back(&obs::MetricsRegistry::Global().counter(
          std::string("encode.fallback.") + kFallbackNames[k]));
    }
    return all;
  }();
  return *counters[static_cast<size_t>(why)];
}

}  // namespace

RtpService::RtpService(const synth::World* world, const ModelSource& models,
                       const ServingConfig& config)
    : extractor_(world), models_(models) {
  if (config.batching_enabled) {
    scheduler_ = std::make_unique<BatchScheduler>(models_, config.batch);
  }
  if (config.encode_sessions.enabled) {
    sessions_ = std::make_unique<EncodeSessionStore>(
        config.encode_sessions.byte_budget);
  }
}

RtpService::Response RtpService::Handle(const RtpRequest& request) const {
  static obs::Counter& requests_counter =
      obs::MetricsRegistry::Global().counter("serve.rtp.requests");
  static obs::Histogram& request_hist =
      obs::StageHistogram("serve.request.ms");
  static obs::Histogram& extract_hist =
      obs::StageHistogram("serve.stage.feature_extract.ms");

  // Serving never backpropagates: skip all graph construction.
  NoGradGuard no_grad;
  // The request trace owns this request's span tree and wide event; the
  // serve.request.ms span right below becomes its root. Inert when a
  // trace is already active on this thread (a nested Handle attributes
  // to the outer request) or when obs is disabled.
  obs::RequestTrace trace("rtp");
  const TensorPool::ArenaCounters pool_before =
      trace.active() ? pool_counters() : TensorPool::ArenaCounters{};
  obs::TraceSpan request_span("serve.request.ms", &request_hist);
  Response response;
  obs::WideEvent& event = trace.event();
  const bool batched = sessions_ == nullptr && scheduler_ != nullptr;
  event.batched = batched;
  event.simd_tier = simd::TierName(simd::ActiveTier());
  {
    obs::TraceSpan span("serve.stage.feature_extract.ms", &extract_hist);
    extractor_.BuildSample(request, &response.sample);
  }
  // The snapshot that serves this request: resolved once, and the source
  // of every model fact the response and the wide event report.
  std::shared_ptr<const ModelSnapshot> snapshot;
  if (batched) {
    // Batching path: the scheduler admits the request, pins one snapshot
    // per batch, and this thread runs the predict.
    BatchResult result = scheduler_->Submit(response.sample);
    response.prediction = std::move(result.prediction);
    snapshot = std::move(result.snapshot);
    event.batch_size = result.batch_size;
    event.shed = result.shed;
  } else {
    // The request-scoped arena recycles every forward-pass buffer
    // through the thread-local pool — once a serving thread is warm, the
    // steady-state hot path performs zero heap allocations for tensor
    // storage.
    ArenaGuard arena;
    snapshot = models_.Current();
    const core::M2g4Rtp& model = *snapshot->model;
    if (sessions_ != nullptr) {
      // Encode-session path: delta-eligible requests bypass the batch
      // queue and run inline against their courier's cached state. The
      // session mutex serializes concurrent Handle() calls for the same
      // courier; distinct couriers proceed in parallel.
      const int courier_id = request.courier.id;
      std::shared_ptr<EncodeSession> session = sessions_->Acquire(courier_id);
      size_t session_bytes = 0;
      {
        std::lock_guard<std::mutex> lock(session->mu);
        if (session->model_version != snapshot->version) {
          // Snapshot hot-swap (or first use): cached encodings belong to
          // other weights — never serve them.
          session->state.Reset();
          session->model_version = snapshot->version;
        }
        core::IncrementalResult incremental;
        response.prediction = model.PredictIncremental(
            response.sample, &session->state, &incremental);
        event.delta_encode = incremental.delta;
        event.encode_fallback =
            kFallbackNames[static_cast<size_t>(incremental.fallback)];
        if (!incremental.delta) {
          FallbackCounter(incremental.fallback).Increment();
        }
        session_bytes = session->state.bytes();
      }
      sessions_->Release(courier_id, session_bytes);
    } else {
      response.prediction = model.Predict(response.sample);
    }
  }
  response.model_version = snapshot->version;
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  requests_counter.Increment();
  if (trace.active()) {
    event.model_version = response.model_version;
    event.num_locations = response.sample.num_locations();
    event.num_aois = response.sample.num_aois();
    event.route_length =
        static_cast<int>(response.prediction.location_route.size());
    event.beam_width = snapshot->model->config().beam_width;
    const TensorPool::ArenaCounters pool_after = pool_counters();
    event.pool_hit_delta = pool_after.hits - pool_before.hits;
    event.pool_miss_delta = pool_after.misses - pool_before.misses;
  }
  return response;
}

TensorPool::ArenaCounters RtpService::pool_counters() {
  return TensorPool::AggregatedArenaCounters();
}

}  // namespace m2g::serve
