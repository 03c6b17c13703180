#include "serve/rtp_service.h"

#include <utility>

#include "obs/trace.h"
#include "tensor/grad_mode.h"
#include "tensor/simd.h"

namespace m2g::serve {

RtpService::RtpService(const synth::World* world,
                       const core::M2g4Rtp* model,
                       const ServingConfig& config)
    : extractor_(world), model_(model) {
  if (config.batching_enabled) {
    scheduler_ =
        std::make_unique<BatchScheduler>(nullptr, model, config.batch);
  }
  if (config.encode_sessions.enabled) {
    sessions_ = std::make_unique<EncodeSessionStore>(
        config.encode_sessions.byte_budget);
  }
}

RtpService::RtpService(const synth::World* world,
                       const ModelRegistry* registry,
                       const ServingConfig& config)
    : extractor_(world), registry_(registry) {
  M2G_CHECK(registry != nullptr);
  if (config.batching_enabled) {
    scheduler_ =
        std::make_unique<BatchScheduler>(registry, nullptr, config.batch);
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
  event.batched = sessions_ == nullptr && scheduler_ != nullptr;
  event.simd_tier = simd::TierName(simd::ActiveTier());
  if (sessions_ != nullptr) {
    // Encode-session path: delta-eligible requests bypass the batch
    // queue and run inline against their courier's cached state. The
    // session mutex serializes concurrent Handle() calls for the same
    // courier; distinct couriers proceed in parallel.
    ArenaGuard arena;
    {
      obs::TraceSpan span("serve.stage.feature_extract.ms", &extract_hist);
      extractor_.BuildSample(request, &response.sample);
    }
    const core::M2g4Rtp* model = model_;
    std::shared_ptr<const ModelSnapshot> snapshot;
    if (registry_ != nullptr) {
      snapshot = registry_->Current();
      model = snapshot->model.get();
      response.model_version = snapshot->version;
    }
    const int courier_id = request.courier.id;
    std::shared_ptr<EncodeSession> session = sessions_->Acquire(courier_id);
    size_t session_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->model_version != response.model_version) {
        // Snapshot hot-swap (or first use): cached encodings belong to
        // other weights — never serve them.
        session->state.Reset();
        session->model_version = response.model_version;
      }
      core::IncrementalResult incremental;
      response.prediction =
          model->PredictIncremental(response.sample, &session->state,
                                    &incremental);
      event.delta_encode = incremental.delta;
      session_bytes = session->state.bytes();
    }
    sessions_->Release(courier_id, session_bytes);
  } else if (scheduler_ != nullptr) {
    // Batching path: extract here; the scheduler admits the request,
    // pins its snapshot, and this thread runs the predict.
    {
      obs::TraceSpan span("serve.stage.feature_extract.ms", &extract_hist);
      extractor_.BuildSample(request, &response.sample);
    }
    BatchResult result = scheduler_->Submit(response.sample);
    response.prediction = std::move(result.prediction);
    response.model_version = result.model_version;
    event.batch_size = result.batch_size;
    event.shed = result.shed;
  } else {
    // Legacy path. The request-scoped arena recycles every forward-pass
    // buffer through the thread-local pool — once a serving thread is
    // warm, the steady-state hot path performs zero heap allocations for
    // tensor storage.
    ArenaGuard arena;
    {
      obs::TraceSpan span("serve.stage.feature_extract.ms", &extract_hist);
      extractor_.BuildSample(request, &response.sample);
    }
    const core::M2g4Rtp* model = model_;
    std::shared_ptr<const ModelSnapshot> snapshot;
    if (registry_ != nullptr) {
      snapshot = registry_->Current();
      model = snapshot->model.get();
      response.model_version = snapshot->version;
    }
    response.prediction = model->Predict(response.sample);
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  requests_counter.Increment();
  if (trace.active()) {
    event.model_version = response.model_version;
    event.num_locations = response.sample.num_locations();
    event.num_aois = response.sample.num_aois();
    event.route_length =
        static_cast<int>(response.prediction.location_route.size());
    event.beam_width = beam_width();
    const TensorPool::ArenaCounters pool_after = pool_counters();
    event.pool_hit_delta = pool_after.hits - pool_before.hits;
    event.pool_miss_delta = pool_after.misses - pool_before.misses;
  }
  return response;
}

int RtpService::beam_width() const {
  if (model_ != nullptr) return model_->config().beam_width;
  if (registry_ != nullptr) {
    // Cheap atomic snapshot read; under a mid-request hot swap this may
    // name the new snapshot's width, which is fine for a log field.
    const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
    if (snapshot != nullptr && snapshot->model != nullptr) {
      return snapshot->model->config().beam_width;
    }
  }
  return 0;
}

TensorPool::ArenaCounters RtpService::pool_counters() {
  return TensorPool::AggregatedArenaCounters();
}

}  // namespace m2g::serve
