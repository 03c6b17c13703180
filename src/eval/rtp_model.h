#ifndef M2G_EVAL_RTP_MODEL_H_
#define M2G_EVAL_RTP_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "synth/dataset.h"

namespace m2g::eval {

/// Uniform interface every compared method implements (the 8 rows of
/// Tables III/IV plus the ablation variants).
class RtpModel {
 public:
  virtual ~RtpModel() = default;
  virtual std::string name() const = 0;
  /// Trains the method; heuristics are no-ops.
  virtual void Fit(const synth::Dataset& train,
                   const synth::Dataset& val) = 0;
  virtual core::RtpPrediction Predict(const synth::Sample& sample) const = 0;
};

/// Knobs that scale the whole comparison up or down (bench runtime vs
/// fidelity). Defaults train every deep model for a few epochs on the
/// full training split.
struct EvalScale {
  int epochs = 15;
  int max_samples_per_epoch = 0;  // 0 = all
  uint64_t seed = 42;
  /// Learned methods are trained this many times with different seeds and
  /// reported as mean +/- std, like the paper's tables. Deterministic
  /// heuristics run once.
  int num_seeds = 3;
  /// Worker threads: parallelizes the (method x seed) comparison grid and
  /// is forwarded to the M2G4RTP variants' trainers. 1 (default) is the
  /// serial path; 0 resolves to DefaultThreads(), which depends on the
  /// host. The grid itself does not change results (every run is
  /// independently seeded and lands at a fixed grid position), but the
  /// trainer does: with N > 1 it reduces per-thread gradient buffers of
  /// contiguous batch shards, a different float summation order than the
  /// serial path, so M2G4RTP weights and their table rows change with
  /// the value. Runs are bitwise-reproducible only at the same value.
  int threads = 1;
};

/// Method names in the paper's table order.
std::vector<std::string> AllMethodNames();

/// Factory for any method name returned by AllMethodNames(), plus the
/// ablation variants "M2G4RTP-two-step", "M2G4RTP-wo-aoi",
/// "M2G4RTP-wo-graph", "M2G4RTP-wo-uncertainty".
std::unique_ptr<RtpModel> CreateModel(const std::string& name,
                                      const EvalScale& scale);

}  // namespace m2g::eval

#endif  // M2G_EVAL_RTP_MODEL_H_
