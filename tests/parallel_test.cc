// Execution-layer tests: thread pool, grad mode, data-parallel training
// equivalence and concurrent serving. The concurrency tests here are the
// ones CI runs under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/trainer.h"
#include "serve/replay.h"
#include "serve/rtp_service.h"
#include "tensor/grad_mode.h"
#include "tensor/ops.h"

namespace m2g {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ShardRangesPartitionAndAreDeterministic) {
  ThreadPool pool(3);
  for (int64_t n : {1, 2, 7, 100}) {
    std::vector<std::pair<int64_t, int64_t>> ranges(
        std::min<int64_t>(3, n));
    pool.ParallelForShards(n, 3, [&](int shard, int64_t begin, int64_t end) {
      ranges[shard] = {begin, end};
    });
    // Shard ranges depend only on (n, shards): contiguous, increasing,
    // covering [0, n).
    int64_t expect_begin = 0;
    for (size_t s = 0; s < ranges.size(); ++s) {
      EXPECT_EQ(ranges[s].first, expect_begin);
      EXPECT_GT(ranges[s].second, ranges[s].first);
      expect_begin = ranges[s].second;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(8, [&](int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool outer(4);
  std::atomic<int> total{0};
  outer.ParallelFor(8, [&](int64_t) {
    ThreadPool inner(4);
    inner.ParallelFor(8,
                      [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ResolveThreadsSemantics) {
  EXPECT_EQ(ResolveThreads(3), 3);
  EXPECT_EQ(ResolveThreads(1), 1);
  SetDefaultThreads(5);
  EXPECT_EQ(ResolveThreads(0), 5);
  EXPECT_EQ(DefaultThreads(), 5);
  SetDefaultThreads(0);
  EXPECT_GE(DefaultThreads(), 1);
}

TEST(GradModeTest, NoGradSkipsGraphConstruction) {
  Tensor a = Tensor::Parameter(Matrix::Full(2, 2, 3.0f));
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradMode::enabled());
    Tensor y = Scale(a, 2.0f);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_EQ(y.node()->backward_fn, nullptr);
    // Forward value is still computed exactly.
    EXPECT_FLOAT_EQ(y.value().At(0, 0), 6.0f);
  }
  EXPECT_TRUE(GradMode::enabled());
  Tensor y = Scale(a, 2.0f);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(y.node()->parents.size(), 1u);
}

TEST(GradModeTest, GuardsNest) {
  NoGradGuard outer;
  {
    NoGradGuard inner;
    EXPECT_FALSE(GradMode::enabled());
  }
  EXPECT_FALSE(GradMode::enabled());
}

TEST(GradModeTest, ModeIsThreadLocal) {
  NoGradGuard guard;
  bool other_thread_enabled = false;
  std::thread t([&] { other_thread_enabled = GradMode::enabled(); });
  t.join();
  // A serving thread under NoGradGuard must not disable autograd on a
  // concurrent training thread.
  EXPECT_TRUE(other_thread_enabled);
  EXPECT_FALSE(GradMode::enabled());
}

/// Small trained world + model shared by the heavier tests.
struct ParallelFixture {
  synth::BuiltWorld built;
  core::ModelConfig mc;

  ParallelFixture()
      : built(synth::BuildWorldAndDataset([] {
          synth::DataConfig dc;
          dc.seed = 911;
          dc.world.num_aois = 60;
          dc.world.num_districts = 3;
          dc.couriers.num_couriers = 5;
          dc.num_days = 5;
          return dc;
        }())) {
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 1;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
  }

  std::unique_ptr<core::M2g4Rtp> TrainedModel(int threads) const {
    auto model = std::make_unique<core::M2g4Rtp>(mc);
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.max_samples_per_epoch = 24;
    tc.threads = threads;
    core::Trainer trainer(model.get(), tc);
    trainer.Fit(built.splits.train, built.splits.val);
    return model;
  }
};

const ParallelFixture& Fixture() {
  static const ParallelFixture* fixture = new ParallelFixture();
  return *fixture;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

TEST(NoGradForwardTest, PredictionIsBitwiseIdentical) {
  const ParallelFixture& f = Fixture();
  core::M2g4Rtp model(f.mc);
  const synth::Sample& s = f.built.splits.test.samples.front();
  core::RtpPrediction with_grad = model.Predict(s);
  core::RtpPrediction no_grad;
  {
    NoGradGuard guard;
    no_grad = model.Predict(s);
  }
  EXPECT_EQ(no_grad.location_route, with_grad.location_route);
  EXPECT_EQ(no_grad.aoi_route, with_grad.aoi_route);
  EXPECT_EQ(no_grad.location_times_min, with_grad.location_times_min);
  EXPECT_EQ(no_grad.aoi_times_min, with_grad.aoi_times_min);
}

TEST(NoGradForwardTest, LossValueIsBitwiseIdentical) {
  const ParallelFixture& f = Fixture();
  core::M2g4Rtp model(f.mc);
  const synth::Sample& s = f.built.splits.test.samples.front();
  // Paired equal-seed rngs so the scheduled-sampling draw matches.
  Rng rng_a(123), rng_b(123);
  const float with_grad = model.ComputeLoss(s, nullptr, &rng_a).item();
  float no_grad = 0;
  {
    NoGradGuard guard;
    no_grad = model.ComputeLoss(s, nullptr, &rng_b).item();
  }
  EXPECT_EQ(no_grad, with_grad);
}

TEST(ParallelTrainerTest, SerialTrainingIsReproducible) {
  const ParallelFixture& f = Fixture();
  auto a = f.TrainedModel(1);
  auto b = f.TrainedModel(1);
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(pa[i].value(), pb[i].value())) << "param " << i;
  }
}

TEST(ParallelTrainerTest, FourThreadTrainingIsReproducible) {
  const ParallelFixture& f = Fixture();
  auto a = f.TrainedModel(4);
  auto b = f.TrainedModel(4);
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(pa[i].value(), pb[i].value())) << "param " << i;
  }
}

TEST(ParallelTrainerTest, FourThreadsMatchSerialWithinTolerance) {
  // Every sample draws from its own guidance stream and losses are summed
  // in sample order at any thread count; the one difference left is the
  // summation order of the gradients (four shards vs one).
  const ParallelFixture& f = Fixture();
  auto serial = f.TrainedModel(1);
  auto parallel = f.TrainedModel(4);
  core::TrainConfig tc;
  core::Trainer eval_serial(serial.get(), tc);
  core::Trainer eval_parallel(parallel.get(), tc);
  const float val_serial = eval_serial.Evaluate(f.built.splits.val);
  const float val_parallel = eval_parallel.Evaluate(f.built.splits.val);
  EXPECT_NEAR(val_parallel, val_serial,
              0.02f * std::abs(val_serial) + 1e-3f);
}

TEST(ParallelEvaluateTest, SameBytesAtOneTwoAndFourThreads) {
  const ParallelFixture& f = Fixture();
  core::M2g4Rtp model(f.mc);
  // Mid-anneal, so each sample's guidance draw decides its guide.
  model.set_guidance_sampling_prob(0.5f);
  float losses[3];
  const int threads[3] = {1, 2, 4};
  for (int k = 0; k < 3; ++k) {
    core::TrainConfig tc;
    tc.threads = threads[k];
    losses[k] = core::Trainer(&model, tc).Evaluate(f.built.splits.val);
  }
  EXPECT_EQ(losses[1], losses[0]);
  EXPECT_EQ(losses[2], losses[0]);
}

TEST(ParallelEvaluateTest, ConcurrentEvaluateCallsAgree) {
  // Evaluate is const and draws each sample's guidance from its own
  // stream, so two threads may evaluate one model at once (TSan checks
  // for races) and both see the serial result.
  const ParallelFixture& f = Fixture();
  core::M2g4Rtp model(f.mc);
  model.set_guidance_sampling_prob(0.5f);
  const core::Trainer trainer(&model, core::TrainConfig{});
  const float reference = trainer.Evaluate(f.built.splits.val);
  float results[2] = {0, 0};
  std::vector<std::thread> workers;
  for (float& result : results) {
    workers.emplace_back(
        [&] { result = trainer.Evaluate(f.built.splits.val); });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(results[0], reference);
  EXPECT_EQ(results[1], reference);
}

TEST(ConcurrentServeTest, HammeredServiceMatchesSerialReference) {
  const ParallelFixture& f = Fixture();
  auto model = f.TrainedModel(1);
  serve::RtpService service(&f.built.world, model.get());

  const auto& samples = f.built.splits.test.samples;
  const int num_requests = std::min<int>(8, samples.size());
  std::vector<serve::RtpRequest> requests;
  std::vector<core::RtpPrediction> reference;
  for (int i = 0; i < num_requests; ++i) {
    requests.push_back(serve::RequestFromSample(samples[i]));
    reference.push_back(model->Predict(samples[i]));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<serve::RtpService::Response>> responses(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const serve::RtpRequest& req : requests) {
        responses[t].push_back(service.Handle(req));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(service.requests_served(),
            static_cast<int64_t>(kThreads) * num_requests);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(static_cast<int>(responses[t].size()), num_requests);
    for (int i = 0; i < num_requests; ++i) {
      EXPECT_EQ(responses[t][i].prediction.location_route,
                reference[i].location_route)
          << "thread " << t << " request " << i;
      EXPECT_EQ(responses[t][i].prediction.location_times_min,
                reference[i].location_times_min);
    }
  }
}

TEST(ConcurrentServeTest, ReplayConcurrentlyMatchesSerialReplay) {
  const ParallelFixture& f = Fixture();
  auto model = f.TrainedModel(1);
  serve::RtpService service(&f.built.world, model.get());

  const auto& samples = f.built.splits.test.samples;
  const int num_requests = std::min<int>(12, samples.size());
  std::vector<serve::RtpRequest> requests;
  for (int i = 0; i < num_requests; ++i) {
    requests.push_back(serve::RequestFromSample(samples[i]));
  }
  serve::ConcurrentReplayResult concurrent =
      serve::ReplayConcurrently(service, requests, 4);
  ASSERT_EQ(static_cast<int>(concurrent.responses.size()), num_requests);
  EXPECT_GT(concurrent.requests_per_second, 0);
  for (int i = 0; i < num_requests; ++i) {
    serve::RtpService::Response serial = service.Handle(requests[i]);
    EXPECT_EQ(concurrent.responses[i].prediction.location_route,
              serial.prediction.location_route)
        << "request " << i;
  }
}

}  // namespace
}  // namespace m2g
