#ifndef M2G_SERVE_RTP_SERVICE_H_
#define M2G_SERVE_RTP_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/model.h"
#include "serve/batch_scheduler.h"
#include "serve/encode_session.h"
#include "serve/feature_extractor.h"
#include "serve/graph_builder.h"
#include "serve/model_registry.h"
#include "tensor/pool.h"

namespace m2g::serve {

/// Per-courier incremental-encode sessions (core/incremental_encode):
/// off by default, like batching — an opt-in serving optimization whose
/// responses are bitwise-identical to the stateless path.
struct EncodeSessionsConfig {
  bool enabled = false;
  /// LRU byte budget across all cached sessions (tensor payloads). The
  /// most recently used session always survives, even over budget.
  size_t byte_budget = 256u << 20;
};

/// Serving-layer switches. Batching defaults off: the legacy
/// one-thread-one-request path stays the default until a deployment
/// opts in, making the batching refactor a pure restructuring under flag.
/// Encode sessions take precedence over batching: a session-routed
/// request runs inline against its courier's cached state and never
/// enters the batch queue.
struct ServingConfig {
  bool batching_enabled = false;
  BatchConfig batch;
  EncodeSessionsConfig encode_sessions;
};

/// Figure 7 "M2G4RTP Service": the online inference layer. Answers RTP
/// requests end-to-end (features -> multi-level graph -> joint route &
/// time prediction) against either a fixed model or a ModelRegistry
/// whose snapshots hot-swap under load.
///
/// Handle() is safe to call from many threads at once: it runs under
/// NoGradGuard (no shared autograd state is touched), the batch
/// scheduler's queue is internally synchronized, and the only other
/// mutable service state is the atomic request counter.
///
/// With `batching_enabled`, concurrent Handle() calls are admitted in
/// micro-batches that each pin one model snapshot (BatchScheduler); every
/// request still computes on its own thread, and responses are
/// bitwise-identical to the unbatched path, per request.
class RtpService {
 public:
  /// Fixed-model service, legacy path only. `model` must outlive the
  /// service; it is typically loaded from a weights file produced by
  /// offline training. Responses carry model_version 0.
  RtpService(const synth::World* world, const core::M2g4Rtp* model)
      : RtpService(world, model, ServingConfig()) {}

  /// Fixed-model service with serving switches.
  RtpService(const synth::World* world, const core::M2g4Rtp* model,
             const ServingConfig& config)
      : RtpService(world, ModelSource(model), config) {}

  /// Registry-backed service: every request (or micro-batch) reads the
  /// registry's current snapshot, so published models go live between
  /// batches with zero downtime. Responses carry the snapshot's version.
  RtpService(const synth::World* world, const ModelRegistry* registry,
             const ServingConfig& config)
      : RtpService(world, ModelSource(registry), config) {}

  /// Joint prediction plus the sample the features resolved to (callers
  /// need the node ordering to map route indices back to order ids).
  struct Response {
    synth::Sample sample;
    core::RtpPrediction prediction;
    /// Version of the model snapshot that served this request (0 when
    /// the service runs on a fixed model with no registry).
    int64_t model_version = 0;
  };

  Response Handle(const RtpRequest& request) const;

  /// Number of requests served (monitoring counter).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Submissions the batcher shed to inline execution (0 when batching
  /// is disabled).
  uint64_t batch_sheds() const {
    return scheduler_ != nullptr ? scheduler_->sheds() : 0;
  }

  /// The encode-session store (nullptr when sessions are disabled).
  /// Exposed for monitoring and the serve_test eviction suite.
  const EncodeSessionStore* session_store() const { return sessions_.get(); }

  /// Tensor-pool behaviour across all request arenas (process-wide
  /// monitoring counters; steady-state serving should report zero new
  /// misses once every serving thread has warmed its pool).
  static TensorPool::ArenaCounters pool_counters();

 private:
  RtpService(const synth::World* world, const ModelSource& models,
             const ServingConfig& config);

  FeatureExtractor extractor_;
  const ModelSource models_;
  std::unique_ptr<BatchScheduler> scheduler_;
  std::unique_ptr<EncodeSessionStore> sessions_;
  mutable std::atomic<int64_t> requests_served_{0};
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_RTP_SERVICE_H_
