#ifndef M2G_BENCH_BENCH_UTIL_H_
#define M2G_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <string>

#include "eval/rtp_model.h"
#include "synth/dataset.h"

namespace m2g::bench {

/// The standard evaluation world every bench shares: a scaled-down
/// Hangzhou (identical seed across benches so the comparison cache is
/// coherent). Size is chosen so the full 8-method comparison trains in
/// minutes on one CPU core while keeping the Figure 4 statistics.
inline synth::DataConfig StandardDataConfig() {
  synth::DataConfig config;
  config.seed = 20230707;
  return config;
}

/// Training scale, overridable for quick runs:
///   M2G_BENCH_EPOCHS       (default 15, early-stopped)
///   M2G_BENCH_MAX_SAMPLES  (default 0 = all train samples per epoch)
///   M2G_BENCH_SEEDS        (default 3: tables report mean±std)
///   M2G_BENCH_THREADS      (default 1; 0 = all cores — parallelizes the
///                           comparison grid and each trainer)
///   M2G_BENCH_FAST=1       (shorthand for 2 epochs / 150 samples / 1 seed)
inline eval::EvalScale StandardScale() {
  eval::EvalScale scale;
  if (const char* fast = std::getenv("M2G_BENCH_FAST");
      fast != nullptr && fast[0] == '1') {
    scale.epochs = 2;
    scale.max_samples_per_epoch = 150;
    scale.num_seeds = 1;
  }
  if (const char* e = std::getenv("M2G_BENCH_EPOCHS")) {
    scale.epochs = std::atoi(e);
  }
  if (const char* m = std::getenv("M2G_BENCH_MAX_SAMPLES")) {
    scale.max_samples_per_epoch = std::atoi(m);
  }
  if (const char* s = std::getenv("M2G_BENCH_SEEDS")) {
    scale.num_seeds = std::atoi(s);
  }
  if (const char* t = std::getenv("M2G_BENCH_THREADS")) {
    scale.threads = std::atoi(t);
  }
  return scale;
}

/// Cache files shared between bench binaries (Table III + IV share one
/// training run; Figure 5 has its own).
inline std::string ComparisonCachePath() { return "m2g_comparison.cache"; }
inline std::string AblationCachePath() { return "m2g_ablation.cache"; }

}  // namespace m2g::bench

#endif  // M2G_BENCH_BENCH_UTIL_H_
