#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "baselines/deep_route.h"
#include "core/trainer.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace m2g::core {
namespace {

synth::DatasetSplits* Splits() {
  static auto* splits = [] {
    synth::DataConfig dc;
    dc.seed = 1212;
    dc.world.num_aois = 60;
    dc.couriers.num_couriers = 5;
    dc.num_days = 5;
    return new synth::DatasetSplits(synth::BuildDataset(dc));
  }();
  return splits;
}

ModelConfig TinyConfig() {
  ModelConfig c;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.num_layers = 1;
  c.aoi_id_embed_dim = 4;
  c.aoi_type_embed_dim = 2;
  c.lstm_hidden_dim = 16;
  c.courier_dim = 8;
  c.pos_enc_dim = 4;
  return c;
}

/// One epoch of the calls Fit makes at one thread, written out by hand:
/// per batch, loss -> Scale(1/batch) -> Backward for each sample, then
/// ClipGradNorm -> Step -> ZeroGrad. perfbench's traced train_epoch
/// replays exactly this sequence and requires Fit's weights bit for bit.
void HandLoopEpoch(nn::Module* module,
                   const std::function<Tensor(const synth::Sample&)>& loss,
                   const TrainConfig& tc, const synth::Dataset& train) {
  nn::Adam optimizer(module->Parameters(), tc.learning_rate, 0.9f, 0.999f,
                     1e-8f, tc.weight_decay);
  Rng rng(tc.shuffle_seed);
  std::vector<int> order(train.samples.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  const int limit = std::min<int>(order.size(), tc.max_samples_per_epoch);
  optimizer.ZeroGrad();
  for (int begin = 0; begin < limit; begin += tc.batch_size) {
    const int end = std::min(limit, begin + tc.batch_size);
    for (int idx = begin; idx < end; ++idx) {
      ArenaGuard arena;
      Scale(loss(train.samples[order[idx]]),
            1.0f / static_cast<float>(tc.batch_size))
          .Backward();
    }
    optimizer.ClipGradNorm(tc.grad_clip_norm);
    optimizer.Step();
    optimizer.ZeroGrad();
  }
}

void ExpectSameWeights(const nn::Module& a, const nn::Module& b) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Matrix& va = pa[i].value();
    const Matrix& vb = pb[i].value();
    ASSERT_TRUE(va.SameShape(vb)) << "param " << i;
    for (size_t k = 0; k < va.size(); ++k) {
      ASSERT_EQ(va[k], vb[k]) << "param " << i << " element " << k;
    }
  }
}

TEST(TrainerTest, OneThreadFitMatchesHandLoop) {
  TrainConfig tc;
  tc.epochs = 1;
  tc.threads = 1;
  tc.max_samples_per_epoch = 20;  // two full batches and a partial one
  M2g4Rtp fitted(TinyConfig());
  Trainer(&fitted, tc).Fit(Splits()->train, Splits()->val);

  // One epoch anneals the guidance probability straight to 1, where the
  // null stream's predicted guide equals every per-sample draw.
  M2g4Rtp replayed(TinyConfig());
  replayed.set_guidance_sampling_prob(1.0f);
  HandLoopEpoch(
      &replayed,
      [&](const synth::Sample& s) { return replayed.ComputeLoss(s); }, tc,
      Splits()->train);
  ExpectSameWeights(fitted, replayed);
}

TEST(TrainerTest, DeepBaselineFitMatchesHandLoop) {
  baselines::DeepBaselineConfig dc;
  dc.hidden_dim = 16;
  dc.lstm_hidden_dim = 16;
  dc.courier_dim = 8;
  dc.num_layers = 1;
  dc.num_heads = 2;
  dc.epochs = 1;
  dc.max_samples_per_epoch = 20;
  dc.seed = 31;
  baselines::DeepRoute fitted(dc);
  Trainer(
      &fitted,
      [&](const synth::Sample& s, LossBreakdown*, Rng*) {
        return fitted.RouteLoss(s);
      },
      dc.ToTrainConfig())
      .Fit(Splits()->train, Splits()->val);

  // The deep baselines' loop: plain Adam at the config's rate, shuffled
  // by seed ^ 0x55aa, steps of batch_size samples clipped at
  // grad_clip_norm.
  TrainConfig hand;
  hand.learning_rate = dc.learning_rate;
  hand.batch_size = dc.batch_size;
  hand.grad_clip_norm = dc.grad_clip_norm;
  hand.shuffle_seed = dc.seed ^ 0x55aa;
  hand.max_samples_per_epoch = dc.max_samples_per_epoch;
  baselines::DeepRoute replayed(dc);
  HandLoopEpoch(
      &replayed,
      [&](const synth::Sample& s) { return replayed.RouteLoss(s); }, hand,
      Splits()->train);
  ExpectSameWeights(fitted, replayed);
}

TEST(TrainerTest, HistoryLengthBoundedByEpochs) {
  M2g4Rtp model(TinyConfig());
  TrainConfig tc;
  tc.epochs = 3;
  tc.early_stop_patience = 0;
  tc.max_samples_per_epoch = 30;
  Trainer trainer(&model, tc);
  auto history = trainer.Fit(Splits()->train, Splits()->val);
  EXPECT_EQ(history.size(), 3u);
  for (size_t e = 0; e < history.size(); ++e) {
    EXPECT_EQ(history[e].epoch, static_cast<int>(e));
    EXPECT_GT(history[e].train_loss, 0.0f);
    EXPECT_GT(history[e].val_loss, 0.0f);
  }
}

TEST(TrainerTest, EarlyStoppingCanEndBeforeEpochLimit) {
  // A huge learning rate makes validation loss blow up immediately, so
  // patience must kick in well before the epoch limit.
  M2g4Rtp model(TinyConfig());
  TrainConfig tc;
  tc.epochs = 30;
  tc.learning_rate = 0.5f;
  tc.early_stop_patience = 2;
  tc.max_samples_per_epoch = 30;
  Trainer trainer(&model, tc);
  auto history = trainer.Fit(Splits()->train, Splits()->val);
  EXPECT_LT(history.size(), 30u);
}

TEST(TrainerTest, RestoresBestValidationParameters) {
  // With a diverging learning rate, the final weights are garbage but
  // Fit must restore the best-validation snapshot, so the model's final
  // val loss equals the minimum seen in history.
  M2g4Rtp model(TinyConfig());
  TrainConfig tc;
  tc.epochs = 5;
  tc.learning_rate = 0.3f;
  tc.early_stop_patience = 0;
  tc.max_samples_per_epoch = 40;
  Trainer trainer(&model, tc);
  auto history = trainer.Fit(Splits()->train, Splits()->val);
  float best = history.front().val_loss;
  for (const EpochStats& e : history) best = std::min(best, e.val_loss);
  // Guidance sampling probability affects ComputeLoss; pin it to the
  // final-epoch value the trainer left behind for a fair comparison.
  const float final_val = trainer.Evaluate(Splits()->val);
  EXPECT_NEAR(final_val, best, 0.35f * best + 0.05f);
}

TEST(TrainerTest, MeanBreakdownTracksAllFourTasks) {
  M2g4Rtp model(TinyConfig());
  TrainConfig tc;
  tc.epochs = 1;
  tc.max_samples_per_epoch = 20;
  Trainer trainer(&model, tc);
  auto history = trainer.Fit(Splits()->train, Splits()->val);
  ASSERT_EQ(history.size(), 1u);
  const LossBreakdown& bd = history.front().mean_breakdown;
  EXPECT_GT(bd.aoi_route, 0.0f);
  EXPECT_GT(bd.location_route, 0.0f);
  EXPECT_GT(bd.aoi_time, 0.0f);
  EXPECT_GT(bd.location_time, 0.0f);
}

TEST(TrainerTest, GuidanceSamplingAnnealedToOne) {
  M2g4Rtp model(TinyConfig());
  TrainConfig tc;
  tc.epochs = 4;
  tc.early_stop_patience = 0;
  tc.max_samples_per_epoch = 10;
  Trainer trainer(&model, tc);
  trainer.Fit(Splits()->train, Splits()->val);
  EXPECT_FLOAT_EQ(model.guidance_sampling_prob(), 1.0f);
}

TEST(TrainerTest, EvaluateEmptyDatasetIsZero) {
  M2g4Rtp model(TinyConfig());
  Trainer trainer(&model, TrainConfig{});
  synth::Dataset empty;
  EXPECT_FLOAT_EQ(trainer.Evaluate(empty), 0.0f);
}

}  // namespace
}  // namespace m2g::core
