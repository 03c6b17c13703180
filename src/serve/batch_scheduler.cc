#include "serve/batch_scheduler.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::serve {
namespace {

obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().histogram(
      "serve.batch.size", {1, 2, 4, 8, 16, 32, 64});
  return h;
}

obs::Counter& ShedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("serve.batch.sheds");
  return c;
}

obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h =
      obs::StageHistogram("serve.batch.queue_wait.ms");
  return h;
}

}  // namespace

BatchScheduler::BatchScheduler(const ModelSource& models,
                               const BatchConfig& config)
    : models_(models), config_(config) {
  M2G_CHECK_GE(config_.max_batch_size, 1);
  M2G_CHECK_GE(config_.max_linger_us, 0);
  M2G_CHECK_GE(config_.max_queue_depth, 1);
}

BatchResult BatchScheduler::Submit(const synth::Sample& sample) {
  Slot slot;
  // Captured before queueing: the innermost open span here is the
  // request's root span, so the queue-wait span the leader records under
  // this context becomes a direct child of it.
  slot.ctx = obs::CurrentTraceContext();
  slot.submit_ms = obs::UptimeMs();

  std::unique_lock<std::mutex> lock(mu_);
  if (static_cast<int>(queue_.size()) >= config_.max_queue_depth) {
    lock.unlock();
    sheds_.fetch_add(1, std::memory_order_relaxed);
    ShedCounter().Increment();
    slot.snapshot = models_.Current();
    BatchResult result = Run(sample, slot);
    result.shed = true;
    return result;
  }
  queue_.push_back(&slot);
  // Wake the leader only while it lingers: a fuller batch may dispatch
  // early. Waking sleeping followers here would just burn context
  // switches on a busy box.
  if (leader_lingering_) cv_.notify_all();
  while (!slot.dispatched) {
    if (leader_active_) {
      cv_.wait(lock);
    } else {
      Lead(lock);
    }
  }
  lock.unlock();
  return Run(sample, slot);
}

void BatchScheduler::Lead(std::unique_lock<std::mutex>& lock) {
  static obs::Histogram& linger_hist =
      obs::StageHistogram("serve.batch.linger.ms");
  leader_active_ = true;
  {
    // Linger for stragglers; a full queue dispatches immediately.
    obs::TraceSpan span("serve.batch.linger.ms", &linger_hist);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(config_.max_linger_us);
    leader_lingering_ = true;
    while (static_cast<int>(queue_.size()) < config_.max_batch_size &&
           cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
    leader_lingering_ = false;
  }
  const int batch_size =
      std::min(static_cast<int>(queue_.size()), config_.max_batch_size);
  BatchSizeHistogram().Record(static_cast<double>(batch_size));
  // One registry read per batch: a concurrent Publish lands between
  // batches, and every member computes with, and is tagged by, the
  // snapshot pinned here — however long its own predict takes.
  const std::shared_ptr<const ModelSnapshot> snapshot = models_.Current();
  // Dispatch ends every member's queue wait: record it per member
  // (submit -> now), into both the queue-wait histogram and each
  // member's span tree. It is distinct from the leader's linger: a
  // follower arriving mid-linger waits less than the full window, one
  // parked behind a full batch waits longer.
  const double dispatch_ms = obs::UptimeMs();
  for (int i = 0; i < batch_size; ++i) {
    Slot* s = queue_.front();
    queue_.pop_front();
    s->snapshot = snapshot;
    s->batch_size = batch_size;
    obs::RecordExternalSpan(s->ctx, "serve.batch.queue_wait.ms",
                            s->submit_ms, dispatch_ms - s->submit_ms,
                            &QueueWaitHistogram(), batch_size);
    s->dispatched = true;
  }
  // Abdicate at once: the members compute on their own threads, and any
  // submitter still queued may elect itself leader.
  leader_active_ = false;
  cv_.notify_all();
}

BatchResult BatchScheduler::Run(const synth::Sample& sample,
                                const Slot& slot) const {
  // No-grad, one arena scope: every forward-pass buffer recycles through
  // the calling thread's pool.
  NoGradGuard no_grad;
  ArenaGuard arena;
  BatchResult result;
  result.prediction = slot.snapshot->model->Predict(sample);
  result.snapshot = slot.snapshot;
  result.batch_size = slot.batch_size;
  return result;
}

}  // namespace m2g::serve
