#ifndef M2G_SERVE_BATCH_SCHEDULER_H_
#define M2G_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "core/model.h"
#include "obs/trace_context.h"
#include "serve/model_registry.h"
#include "synth/dataset.h"

namespace m2g::serve {

/// Tuning knobs for the request batcher. The defaults suit a handful of
/// concurrent submitters: a full batch dispatches immediately, a lone
/// request waits at most `max_linger_us` for company.
struct BatchConfig {
  /// Most requests one leader admits per dispatch. Every member computes
  /// on its own thread, so this bounds how many submitters share one
  /// snapshot read, not how much work any one thread does.
  int max_batch_size = 8;
  /// How long an under-full batch lingers for more arrivals before
  /// dispatching anyway. Bounds added latency under light load.
  int max_linger_us = 200;
  /// Submission-queue bound. At the bound, Submit sheds the request
  /// (serve.batch.sheds): it skips the queue and runs at once on the
  /// calling thread — overload degrades to the unbatched path, it never
  /// deadlocks.
  int max_queue_depth = 256;
};

/// One served request's outputs, handed back to the submitting thread.
struct BatchResult {
  core::RtpPrediction prediction;
  /// The snapshot that produced `prediction` (version 0 when the
  /// scheduler runs on a fixed model with no registry).
  std::shared_ptr<const ModelSnapshot> snapshot;
  /// Size of the micro-batch this request was admitted in (1 on the shed
  /// path).
  int batch_size = 1;
  /// True when the queue was full and the request skipped it.
  bool shed = false;
};

/// Admits concurrent Submit() calls in micro-batches using the
/// leader/follower protocol: every submitter enqueues its slot; the
/// first submitter that finds no active leader becomes the leader,
/// lingers briefly for stragglers, pops up to max_batch_size slots FIFO,
/// pins one model snapshot for all of them, marks them dispatched and
/// steps down at once. Every submitter, the leader included, then runs
/// Predict for its own sample on its own thread. A batch is a unit of
/// admission and snapshot pinning, not of compute: members run in
/// parallel, and no submitter sleeps while another computes its request.
/// No dedicated worker thread exists: an idle service costs nothing, and
/// a single uncontended Submit is one queue push + one pop + a predict
/// on the calling thread.
///
/// Every response is bitwise-identical to Predict() on the model that
/// served it (serve_test).
///
/// Reads the model through a ModelSource — one snapshot read per batch,
/// so a hot swap lands between batches, every member computes with the
/// snapshot its leader pinned, and each response carries that snapshot.
class BatchScheduler {
 public:
  BatchScheduler(const ModelSource& models, const BatchConfig& config);

  /// Blocks until the sample is dispatched, then predicts it on the
  /// calling thread.
  BatchResult Submit(const synth::Sample& sample);

  /// Submissions that bypassed the queue because it was full.
  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  /// One submitter's parking spot, stack-allocated in Submit. The leader
  /// fills the dispatch fields and sets `dispatched` under the lock; the
  /// submitter reads them only after it has seen `dispatched` under the
  /// lock.
  struct Slot {
    /// The submitter's trace context, captured at Submit so the leader
    /// can attribute the queue wait to the owning request's span tree.
    obs::TraceContext ctx;
    /// Submit time (ms since process start) for the queue-wait span.
    double submit_ms = 0;
    bool dispatched = false;
    /// Set at dispatch: the model this member computes with.
    std::shared_ptr<const ModelSnapshot> snapshot;
    int batch_size = 1;
  };

  /// Lingers, dispatches one batch and abdicates. Called with the lock
  /// held by a submitter that found no active leader; the batch may not
  /// include the leader's own slot when a full batch was queued ahead.
  void Lead(std::unique_lock<std::mutex>& lock);

  /// The one execution function: Predict for `sample` with the snapshot
  /// `slot` pins, on the calling thread (batched and shed paths alike).
  BatchResult Run(const synth::Sample& sample, const Slot& slot) const;

  const ModelSource models_;
  const BatchConfig config_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Slot*> queue_;
  bool leader_active_ = false;
  bool leader_lingering_ = false;
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_BATCH_SCHEDULER_H_
