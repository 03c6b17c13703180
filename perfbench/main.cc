// Benchmark binary: perfbench --workload W --seed N --seconds S --trace 0|1
//   [--commit ID] [--trace-dir DIR] [--setup-only 1]
// Prints detail lines, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --setup-only 1 it sets the workload up, prints "setup_s <seconds>"
// and exits.
// perfbench/run.py builds this binary and is the command to use.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "spans.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--trace-dir DIR] "
               "[--setup-only 1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start_ns = perfbench::NowNs();
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a build without "
               "NDEBUG (build type " PERFBENCH_BUILD_TYPE ")\n");
  return 3;
#else
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--setup-only") {
      options.setup_only = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!have_seed || options.seconds <= 0) {
    return Usage("--seed and a positive --seconds are required");
  }

  std::printf(
      "stamp workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "simd_detected=%s simd_active=%s build=%s ndebug=1 obs=%s commit=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      m2g::simd::TierName(m2g::simd::DetectedTier()),
      m2g::simd::TierName(m2g::simd::ActiveTier()), PERFBENCH_BUILD_TYPE,
      m2g::obs::Enabled() ? "on" : "off", commit.c_str());

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  if (options.setup_only) {
    std::printf("setup_s %.9f\n", result.metrics.front().value);
    return 0;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
#endif
}
