// The four workloads and what one run of each reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (created if missing).
  std::string trace_dir = ".bench_build/traces";
  /// steady-clock ns at process start, the origin of setup_s.
  int64_t process_start_ns = 0;
  /// Stop after the setup and report only its time: every setup_s sample
  /// is a cold setup in a process of its own.
  bool setup_only = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: end-to-end metrics with trace off, per-layer metrics
/// with trace on. Prints human-readable detail lines to stdout as it goes.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
