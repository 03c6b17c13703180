#ifndef M2G_CORE_TRAINER_H_
#define M2G_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/model.h"

namespace m2g::core {

struct TrainConfig {
  int epochs = 8;
  float learning_rate = 2e-3f;
  /// Gradients accumulate over this many samples before a step.
  int batch_size = 8;
  float grad_clip_norm = 5.0f;
  /// Decoupled AdamW weight decay (0 = plain Adam).
  float weight_decay = 0.0f;
  /// Stop after this many epochs without val improvement (0 = never).
  int early_stop_patience = 3;
  uint64_t shuffle_seed = 7;
  bool verbose = false;
  /// Optional cap on train samples per epoch (0 = all), for quick runs.
  int max_samples_per_epoch = 0;
  /// Workers per accumulation batch. Each batch is split into N
  /// contiguous shards: shard 0 backpropagates straight into the
  /// parameter grads, shards 1..N-1 into per-thread buffers added in
  /// shard order. Every sample draws from its own stream seeded by
  /// (shuffle_seed, epoch, sample), and losses are summed in sample
  /// order, so `Evaluate` gives the same bytes for every N and `Fit` is
  /// bitwise-reproducible for a fixed N (gradient summation order
  /// depends on N; N = 1 is the plain serial sum). 0 resolves to
  /// DefaultThreads() (M2G_THREADS env or hardware concurrency).
  int threads = 1;
};

struct EpochStats {
  int epoch = 0;
  float train_loss = 0;
  float val_loss = 0;
  LossBreakdown mean_breakdown;
};

/// The one training loop for every deep model: shuffle, accumulate
/// per-sample gradients over a batch, clip, Adam step, validate, stop
/// early, and restore the best-validation parameters at the end. The
/// model is an nn::Module plus a per-sample loss; M2G4RTP's constructor
/// also anneals its AOI-guidance sampling probability from 0 to 1 over
/// the epochs.
class Trainer {
 public:
  /// Scalar training loss for one sample. `breakdown` (may be null)
  /// receives per-task values; `guidance_rng` is the sample's own
  /// stream for any random draw the loss makes.
  using LossFn = std::function<Tensor(const synth::Sample& sample,
                                      LossBreakdown* breakdown,
                                      Rng* guidance_rng)>;

  Trainer(M2g4Rtp* model, const TrainConfig& config);
  Trainer(nn::Module* module, LossFn loss_fn, const TrainConfig& config);
  ~Trainer();

  /// Runs the full loop; returns per-epoch stats.
  std::vector<EpochStats> Fit(const synth::Dataset& train,
                              const synth::Dataset& val);

  /// Mean loss over a dataset: no-grad forwards on the worker pool,
  /// summed in sample order (the same bytes for every thread count).
  /// Safe to call from several threads at once.
  float Evaluate(const synth::Dataset& dataset) const;

 private:
  void SnapshotParams();
  void RestoreParams();

  /// Accumulates the gradients of order[batch_begin, batch_end) into the
  /// grads of `params` (see TrainConfig::threads) and fills `breakdowns`
  /// with each sample's losses, in batch order.
  void RunBatch(const synth::Dataset& train, const std::vector<int>& order,
                const std::vector<Tensor>& params, int batch_begin,
                int batch_end, int epoch,
                std::vector<LossBreakdown>* breakdowns);

  nn::Module* module_;
  LossFn loss_fn_;
  /// The model whose guidance sampling Fit anneals (null for others).
  M2g4Rtp* guided_ = nullptr;
  TrainConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Matrix> best_params_;
};

}  // namespace m2g::core

#endif  // M2G_CORE_TRAINER_H_
