#ifndef M2G_OBS_WIDE_EVENT_H_
#define M2G_OBS_WIDE_EVENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace m2g::obs {

/// One structured event per served request: everything a latency or
/// drift investigation wants to slice by, denormalized into a single
/// record ("wide event" / canonical log line). Serialized as one JSON
/// object per line (JSONL) by ToJsonLine / WriteJsonl and served live by
/// the admin endpoint's /events route.
struct WideEvent {
  uint64_t trace_id = 0;
  /// Short request-class label ("rtp", "eval", ...). Escaped on output —
  /// arbitrary bytes are safe.
  std::string tag;
  int64_t model_version = 0;
  /// Size of the micro-batch this request was served in (1 when batching
  /// is off or the request ran inline).
  int batch_size = 1;
  /// True when the batch queue was full and the request was shed to the
  /// inline single-request path.
  bool shed = false;
  /// True when the service routed the request through the batch
  /// scheduler (even if it ended up in a batch of one).
  bool batched = false;
  /// True when the request was served through an encode session's delta
  /// path (incremental re-encode) rather than a full graph encode.
  bool delta_encode = false;
  /// Why a session request did not take the delta path: "none" when it
  /// did, else "cold", "global_changed", "structural", "capacity",
  /// "refresh", "dirty_spread" or "disabled". Empty when encode sessions
  /// are off.
  std::string encode_fallback;
  /// SIMD dispatch tier the tensor kernels ran at ("scalar", "sse2",
  /// "avx2"). Filled by the serving layer from simd::ActiveTier() —
  /// obs/ sits below tensor/, so the value arrives as a plain string.
  /// Constant within a process, but recorded per event so mixed fleets
  /// slice latency by tier.
  std::string simd_tier;
  int num_locations = 0;
  int num_aois = 0;
  int beam_width = 0;
  int route_length = 0;
  double total_ms = 0;
  double feature_extract_ms = 0;
  double queue_wait_ms = 0;
  double graph_build_ms = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  double eta_head_ms = 0;
  /// Process-wide tensor-pool counter movement across the request (an
  /// attribution approximation under concurrency: concurrent requests'
  /// pool traffic lands in whichever window observes it).
  uint64_t pool_hit_delta = 0;
  uint64_t pool_miss_delta = 0;
};

/// Sampling and retention knobs. The defaults keep every event (head
/// sampling off at 1): perfbench's obs.overhead_frac measures what a
/// fully-enabled pipeline costs, and sampling is a volume knob for log
/// shipping, not a performance requirement.
struct WideEventOptions {
  /// Keep every Nth event (1 = all, 0 = none except tail). Head sampling
  /// is a deterministic modulo on the event sequence number.
  int head_sample_every = 1;
  /// Requests at or over this end-to-end latency are always kept, even
  /// when head sampling would drop them (tail sampling: the slow
  /// requests are the ones worth debugging).
  double tail_keep_over_ms = 250.0;
  /// Ring of recent kept events served by /events.
  size_t ring_capacity = 256;
};

/// Process-wide sink for wide events: a bounded in-memory ring (for the
/// admin endpoint) plus JSONL serialization helpers. Record is gated by
/// obs::SetEnabled and compiled out under M2G_OBS_DISABLED, like every
/// other event path.
class WideEventSink {
 public:
  static WideEventSink& Global();

  WideEventSink() = default;
  WideEventSink(const WideEventSink&) = delete;
  WideEventSink& operator=(const WideEventSink&) = delete;

  void Configure(const WideEventOptions& options);
  WideEventOptions options() const;

  void Record(const WideEvent& event) {
#ifndef M2G_OBS_DISABLED
    if (Enabled()) RecordImpl(event);
#else
    (void)event;
#endif
  }

  /// Kept events, oldest first (snapshot).
  std::vector<WideEvent> Recent() const;
  void Clear();

  /// Events kept / dropped by head sampling since process start (also
  /// exported as obs.wide_events.recorded / obs.wide_events.sampled_out).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }

  /// One RFC 8259 JSON object, no trailing newline.
  static std::string ToJsonLine(const WideEvent& event);

  /// Writes the recent ring as JSON lines, atomically (tmp + rename).
  bool WriteJsonl(const std::string& path) const;

 private:
  void RecordImpl(const WideEvent& event);

  mutable std::mutex mu_;
  WideEventOptions options_;
  std::vector<WideEvent> ring_;
  size_t next_ = 0;
  bool wrapped_ = false;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> sampled_out_{0};
};

}  // namespace m2g::obs

#endif  // M2G_OBS_WIDE_EVENT_H_
