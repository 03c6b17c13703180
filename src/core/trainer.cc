#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "tensor/grad_buffer.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

/// splitmix64-style mix for per-sample guidance streams: deterministic in
/// (seed, epoch, sample) and independent of the thread count.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t index) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (salt + 1) +
               0xbf58476d1ce4e5b9ULL * (index + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kEvalSalt = 0xe7a1;

/// Training telemetry. All writes are observe-only (gauge stores and
/// span clocks) — the numeric path, RNG streams and iteration order are
/// untouched, so fixed-seed training stays bitwise identical.
obs::Histogram& ShardStepHistogram() {
  static obs::Histogram& hist =
      obs::StageHistogram("train.shard_step.ms");
  return hist;
}

}  // namespace

Trainer::Trainer(M2g4Rtp* model, const TrainConfig& config)
    : Trainer(
          model,
          [model](const synth::Sample& sample, LossBreakdown* breakdown,
                  Rng* guidance_rng) {
            return model->ComputeLoss(sample, breakdown, guidance_rng);
          },
          config) {
  guided_ = model;
}

Trainer::Trainer(nn::Module* module, LossFn loss_fn,
                 const TrainConfig& config)
    : module_(module),
      loss_fn_(std::move(loss_fn)),
      config_(config),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(config.threads))) {}

Trainer::~Trainer() = default;

void Trainer::SnapshotParams() {
  best_params_.clear();
  for (const Tensor& p : module_->Parameters()) {
    best_params_.push_back(p.value());
  }
}

void Trainer::RestoreParams() {
  if (best_params_.empty()) return;
  auto params = module_->Parameters();
  M2G_CHECK_EQ(params.size(), best_params_.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].node()->value = best_params_[i];
  }
}

float Trainer::Evaluate(const synth::Dataset& dataset) const {
  if (dataset.samples.empty()) return 0.0f;
  static obs::Histogram& eval_hist = obs::StageHistogram("train.eval.ms");
  obs::TraceSpan eval_span("train.eval.ms", &eval_hist);
  Stopwatch watch;
  const int64_t n = static_cast<int64_t>(dataset.samples.size());
  std::vector<float> losses(n);
  pool_->ParallelForShards(
      n, pool_->num_threads(), [&](int, int64_t begin, int64_t end) {
        // Evaluation never backpropagates: no-grad forward is
        // bitwise-identical and skips all graph construction. Grad mode
        // is thread-local, so each shard sets it.
        NoGradGuard no_grad;
        for (int64_t i = begin; i < end; ++i) {
          // Per-sample arena: the forward graph's buffers recycle across
          // samples instead of churning the heap.
          ArenaGuard arena;
          Rng grng(MixSeed(config_.shuffle_seed, kEvalSalt,
                           static_cast<uint64_t>(i)));
          losses[i] = loss_fn_(dataset.samples[i], nullptr, &grng).item();
        }
      });
  double total = 0;
  for (float loss : losses) total += loss;
  const float mean = static_cast<float>(total / n);
  obs::MetricsRegistry::Global().gauge("train.eval_loss").Set(mean);
  const double seconds = watch.ElapsedSeconds();
  if (seconds > 0) {
    obs::MetricsRegistry::Global()
        .gauge("train.eval_samples_per_sec")
        .Set(n / seconds);
  }
  return mean;
}

void Trainer::RunBatch(const synth::Dataset& train,
                       const std::vector<int>& order,
                       const std::vector<Tensor>& params, int batch_begin,
                       int batch_end, int epoch,
                       std::vector<LossBreakdown>* breakdowns) {
  const int count = batch_end - batch_begin;
  const int shards = std::min(pool_->num_threads(), count);
  breakdowns->assign(count, LossBreakdown{});
  // Shard 0 is the only writer of the parameter grads until the
  // reduction below, so its buffer stays unused.
  std::vector<internal::GradBuffer> buffers(shards);
  pool_->ParallelForShards(
      count, shards, [&](int shard, int64_t begin, int64_t end) {
        obs::TraceSpan step_span("train.shard_step.ms",
                                 &ShardStepHistogram());
        internal::GradBufferScope scope(shard == 0 ? nullptr
                                                   : &buffers[shard]);
        for (int64_t k = begin; k < end; ++k) {
          // Per-sample-graph arena: forward values, node grads and the
          // backward's kernel scratch all recycle. The leaf grads escape
          // into the parameters or `buffers` — safe, Matrix storage is
          // deeply owned.
          ArenaGuard arena;
          const int idx = order[batch_begin + k];
          Rng grng(MixSeed(config_.shuffle_seed,
                           static_cast<uint64_t>(epoch),
                           static_cast<uint64_t>(idx)));
          LossBreakdown& bd = (*breakdowns)[k];
          Tensor loss = loss_fn_(train.samples[idx], &bd, &grng);
          bd.total = loss.item();
          // Scale so a batch of accumulated gradients averages the
          // samples.
          Scale(loss, 1.0f / static_cast<float>(config_.batch_size))
              .Backward();
        }
      });
  // Deterministic reduction: every parameter adds shards 1..N-1 in shard
  // order.
  for (int s = 1; s < shards; ++s) {
    for (const Tensor& p : params) {
      internal::TensorNode* node = p.node().get();
      if (const Matrix* g = buffers[s].Find(node)) {
        node->EnsureGrad().AddInPlace(*g);
      }
    }
  }
}

std::vector<EpochStats> Trainer::Fit(const synth::Dataset& train,
                                     const synth::Dataset& val) {
  M2G_CHECK(!train.samples.empty());
  M2G_CHECK_GT(config_.batch_size, 0);
  const std::vector<Tensor> params = module_->Parameters();
  nn::Adam optimizer(params, config_.learning_rate, 0.9f, 0.999f, 1e-8f,
                     config_.weight_decay);
  Rng rng(config_.shuffle_seed);

  std::vector<EpochStats> history;
  float best_val = std::numeric_limits<float>::infinity();
  int stale_epochs = 0;

  std::vector<int> order(train.samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<LossBreakdown> breakdowns;

  static obs::Histogram& epoch_hist = obs::StageHistogram("train.epoch.ms");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train.epoch.ms", &epoch_hist);
    Stopwatch epoch_watch;
    if (guided_ != nullptr) {
      // Anneal the AOI-guidance scheduled sampling: teacher-forced guides
      // early, inference-aligned guides by the final epoch.
      guided_->set_guidance_sampling_prob(
          config_.epochs > 1
              ? static_cast<float>(epoch) / (config_.epochs - 1)
              : 1.0f);
    }
    rng.Shuffle(&order);
    int limit = static_cast<int>(order.size());
    if (config_.max_samples_per_epoch > 0) {
      limit = std::min(limit, config_.max_samples_per_epoch);
    }
    double epoch_loss = 0;
    LossBreakdown mean{};
    optimizer.ZeroGrad();
    for (int batch_begin = 0; batch_begin < limit;
         batch_begin += config_.batch_size) {
      RunBatch(train, order, params, batch_begin,
               std::min(limit, batch_begin + config_.batch_size), epoch,
               &breakdowns);
      // Sample order, whatever the thread count.
      for (const LossBreakdown& bd : breakdowns) {
        epoch_loss += bd.total;
        mean.aoi_route += bd.aoi_route;
        mean.location_route += bd.location_route;
        mean.aoi_time += bd.aoi_time;
        mean.location_time += bd.location_time;
      }
      optimizer.ClipGradNorm(config_.grad_clip_norm);
      optimizer.Step();
      optimizer.ZeroGrad();
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = static_cast<float>(epoch_loss / limit);
    mean.aoi_route /= limit;
    mean.location_route /= limit;
    mean.aoi_time /= limit;
    mean.location_time /= limit;
    stats.mean_breakdown = mean;
    const double train_seconds = epoch_watch.ElapsedSeconds();
    stats.val_loss = Evaluate(val);
    history.push_back(stats);
    // Per-epoch telemetry: last-epoch gauges plus training throughput
    // over the samples this epoch actually visited.
    registry.gauge("train.epoch").Set(epoch);
    registry.gauge("train.epoch_loss").Set(stats.train_loss);
    registry.gauge("train.val_loss").Set(stats.val_loss);
    if (train_seconds > 0) {
      registry.gauge("train.samples_per_sec")
          .Set(limit / train_seconds);
    }
    if (config_.verbose) {
      M2G_LOG(Info) << "epoch " << epoch << " train=" << stats.train_loss
                    << " val=" << stats.val_loss
                    << " (route_l=" << mean.location_route
                    << " time_l=" << mean.location_time << ")";
    }
    const float val_metric =
        val.samples.empty() ? stats.train_loss : stats.val_loss;
    if (val_metric < best_val) {
      best_val = val_metric;
      stale_epochs = 0;
      SnapshotParams();
    } else if (config_.early_stop_patience > 0 &&
               ++stale_epochs >= config_.early_stop_patience) {
      if (config_.verbose) {
        M2G_LOG(Info) << "early stop at epoch " << epoch;
      }
      break;
    }
  }
  RestoreParams();
  return history;
}

}  // namespace m2g::core
