#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "feature_equality.h"
#include "obs/admin_server.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "serve/eta_service.h"
#include "serve/graph_builder.h"
#include "serve/model_registry.h"
#include "serve/order_sorting_service.h"
#include "serve/replay.h"
#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace m2g::serve {
namespace {

struct ServeFixture {
  synth::DataConfig data_config;
  synth::BuiltWorld built;
  std::unique_ptr<core::M2g4Rtp> model;

  ServeFixture()
      : data_config([] {
          synth::DataConfig dc;
          dc.seed = 707;
          dc.world.num_aois = 70;
          dc.world.num_districts = 3;
          dc.couriers.num_couriers = 6;
          dc.num_days = 6;
          return dc;
        }()),
        built(synth::BuildWorldAndDataset(data_config)) {
    core::ModelConfig mc;
    mc.hidden_dim = 16;
    mc.num_heads = 2;
    mc.num_layers = 1;
    mc.aoi_id_embed_dim = 4;
    mc.aoi_type_embed_dim = 2;
    mc.lstm_hidden_dim = 16;
    mc.courier_dim = 8;
    mc.pos_enc_dim = 4;
    model = std::make_unique<core::M2g4Rtp>(mc);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.max_samples_per_epoch = 30;
    core::Trainer trainer(model.get(), tc);
    trainer.Fit(built.splits.train, built.splits.val);
  }
};

ServeFixture* Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return fixture;
}

TEST(FeatureExtractorTest, ReconstructsOfflineSampleExactly) {
  // The online feature path must produce the same sample the offline
  // snapshot pipeline produced (minus labels), bit for bit.
  ServeFixture* f = Fixture();
  FeatureExtractor extractor(&f->built.world);
  const synth::Sample& offline = f->built.splits.test.samples.front();
  synth::Sample online = extractor.BuildSample(RequestFromSample(offline));
  EXPECT_TRUE(online.route_label.empty());  // no labels online
  testutil::ExpectSameSample(online, testutil::WithoutLabels(offline));
}

TEST(GraphBuilderTest, OnlineGraphMatchesOffline) {
  ServeFixture* f = Fixture();
  FeatureExtractor extractor(&f->built.world);
  GraphBuilder builder;
  const synth::Sample& offline = f->built.splits.test.samples.front();
  synth::Sample online =
      extractor.BuildSample(RequestFromSample(offline));
  graph::MultiLevelGraph og =
      graph::BuildMultiLevelGraph(offline, builder.config());
  graph::MultiLevelGraph ng = builder.Build(online);
  EXPECT_EQ(og.location.adjacency, ng.location.adjacency);
  EXPECT_EQ(og.aoi.adjacency, ng.aoi.adjacency);
  for (size_t i = 0; i < og.location.node_continuous.size(); ++i) {
    EXPECT_FLOAT_EQ(og.location.node_continuous[i],
                    ng.location.node_continuous[i]);
  }
}

TEST(RtpServiceTest, HandleServesJointPrediction) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpService::Response response = service.Handle(RequestFromSample(s));
  EXPECT_EQ(static_cast<int>(response.prediction.location_route.size()),
            s.num_locations());
  EXPECT_EQ(service.requests_served(), 1);
}

TEST(RtpServiceTest, OnlinePredictionMatchesOfflinePrediction) {
  // The deployed path and the offline eval path must agree bit-for-bit:
  // same features, same graph, same model.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  const synth::Sample& s = f->built.splits.test.samples.front();
  core::RtpPrediction offline = f->model->Predict(s);
  RtpService::Response online = service.Handle(RequestFromSample(s));
  EXPECT_EQ(online.prediction.location_route, offline.location_route);
  EXPECT_EQ(online.prediction.aoi_route, offline.aoi_route);
}

TEST(RtpServiceTest, PlainHandleSteadyStateIsMallocFree) {
  // Once a serving thread's pool is warm, the plain Handle path takes
  // every tensor buffer from the free lists: zero pool misses over
  // repeated passes of a mixed-size request set, and at least 5x fewer
  // tensor heap allocations per request than with the pool off.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  const auto& samples = f->built.splits.test.samples;
  std::vector<RtpRequest> requests;
  for (size_t i = 0; i < samples.size() && i < 8; ++i) {
    requests.push_back(RequestFromSample(samples[i]));
  }
  ASSERT_GE(requests.size(), 2u);
  constexpr int kPasses = 2;
  const auto serve = [&](bool pooled) {
    TensorPool::set_enabled(pooled);
    for (const RtpRequest& req : requests) service.Handle(req);  // warm-up
    TensorPool::ResetThreadStats();
    for (int p = 0; p < kPasses; ++p) {
      for (const RtpRequest& req : requests) service.Handle(req);
    }
    const TensorPool::Stats stats = TensorPool::ThreadStats();
    TensorPool::set_enabled(true);
    return stats;
  };
  const TensorPool::Stats pooled = serve(true);
  const TensorPool::Stats plain = serve(false);
  EXPECT_EQ(pooled.pool_misses, 0u);
  EXPECT_GT(pooled.pool_hits, 0u);
  ASSERT_GT(plain.heap_allocs, 0u);
  EXPECT_GE(plain.heap_allocs, 5 * pooled.heap_allocs)
      << "pooled " << pooled.heap_allocs << " vs plain " << plain.heap_allocs
      << " tensor heap allocations over " << kPasses * requests.size()
      << " requests";
}

TEST(OrderSortingServiceTest, RanksEveryPendingOrderOnce) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  OrderSortingService sorting(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  auto sorted = sorting.Sort(RequestFromSample(s));
  ASSERT_EQ(static_cast<int>(sorted.size()), s.num_locations());
  std::vector<int> ids;
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].rank, static_cast<int>(i));
    ids.push_back(sorted[i].order_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(EtaServiceTest, EtasAlignWithRouteRanks) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  auto etas = eta.Estimate(RequestFromSample(s));
  ASSERT_EQ(static_cast<int>(etas.size()), s.num_locations());
  for (const auto& e : etas) {
    EXPECT_GE(e.eta_minutes, 0.0);
    EXPECT_GE(e.stops_before, 0);
    EXPECT_LT(e.stops_before, s.num_locations());
  }
}

TEST(EtaServiceTest, NotifyFiresOnlyWithinThreshold) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService::Config config;
  config.notify_within_minutes = 15.0;
  EtaService eta(&service, config);
  const synth::Sample& s = f->built.splits.test.samples.front();
  for (const auto& e : eta.Estimate(RequestFromSample(s))) {
    EXPECT_EQ(e.notify_user, e.eta_minutes <= 15.0);
  }
}

TEST(EtaServiceTest, EstimateOrderFindsAndRejects) {
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpRequest req = RequestFromSample(s);
  auto found = eta.EstimateOrder(req, s.locations[0].order_id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().order_id, s.locations[0].order_id);
  auto missing = eta.EstimateOrder(req, -1234);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Exact (bitwise) equality between two predictions: routes are integer
// vectors, times are doubles produced by identical float op sequences.
void ExpectPredictionBitwiseEq(const core::RtpPrediction& got,
                               const core::RtpPrediction& want) {
  EXPECT_EQ(got.location_route, want.location_route);
  EXPECT_EQ(got.aoi_route, want.aoi_route);
  ASSERT_EQ(got.location_times_min.size(), want.location_times_min.size());
  for (size_t i = 0; i < want.location_times_min.size(); ++i) {
    EXPECT_EQ(got.location_times_min[i], want.location_times_min[i]) << i;
  }
  ASSERT_EQ(got.aoi_times_min.size(), want.aoi_times_min.size());
  for (size_t i = 0; i < want.aoi_times_min.size(); ++i) {
    EXPECT_EQ(got.aoi_times_min[i], want.aoi_times_min[i]) << i;
  }
}

TEST(PredictBatchTest, BitwiseIdenticalToSequentialPooledAndPlain) {
  // For every sample of a mixed-size group, PredictBatch must reproduce
  // Predict's bits — with pooled storage (the serving configuration) and
  // with the pool kill switch off (plain heap storage).
  ServeFixture* f = Fixture();
  NoGradGuard no_grad;
  const auto& samples = f->built.splits.test.samples;
  std::vector<const synth::Sample*> batch;
  for (size_t i = 0; i < samples.size() && i < 6; ++i) {
    batch.push_back(&samples[i]);
  }
  ASSERT_GE(batch.size(), 2u);

  std::vector<core::RtpPrediction> want;
  for (const synth::Sample* s : batch) want.push_back(f->model->Predict(*s));

  {
    ArenaGuard arena;
    std::vector<core::RtpPrediction> got = f->model->PredictBatch(batch);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectPredictionBitwiseEq(got[i], want[i]);
    }
  }
  TensorPool::set_enabled(false);
  std::vector<core::RtpPrediction> plain = f->model->PredictBatch(batch);
  TensorPool::set_enabled(true);
  ASSERT_EQ(plain.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectPredictionBitwiseEq(plain[i], want[i]);
  }
}

TEST(RtpServiceBatchingTest, BatchedHandleMatchesUnbatchedBitwise) {
  // Concurrent Handle() calls through the batching scheduler must return
  // exactly the unbatched responses, no matter how the scheduler
  // composed the micro-batches.
  ServeFixture* f = Fixture();
  const auto& samples = f->built.splits.test.samples;
  const int kDistinct = std::min<int>(6, static_cast<int>(samples.size()));
  std::vector<RtpRequest> requests;
  std::vector<core::RtpPrediction> want;
  {
    NoGradGuard no_grad;
    for (int i = 0; i < kDistinct; ++i) {
      requests.push_back(RequestFromSample(samples[i]));
      want.push_back(f->model->Predict(samples[i]));
    }
  }

  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  config.batch.max_linger_us = 1000;
  RtpService service(&f->built.world, f->model.get(), config);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  // responses[t][r * kDistinct + i] answers requests[i].
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kDistinct; ++i) {
          responses[t].push_back(service.Handle(requests[i]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(service.requests_served(), kThreads * kRounds * kDistinct);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRounds * kDistinct));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kDistinct; ++i) {
        const RtpService::Response& resp = responses[t][r * kDistinct + i];
        ExpectPredictionBitwiseEq(resp.prediction, want[i]);
        // Fixed-model service: every response tagged version 0.
        EXPECT_EQ(resp.model_version, 0);
        // The sample rode through the batch with the right request.
        ASSERT_EQ(resp.sample.num_locations(),
                  samples[i].num_locations());
        EXPECT_EQ(resp.sample.locations.front().order_id,
                  samples[i].locations.front().order_id);
      }
    }
  }
}

TEST(RtpServiceBatchingTest, ConcurrentStressZeroSteadyStateMisses) {
  // requests_served() must equal submissions, and once each serving
  // thread's pool is warm the batching path must allocate nothing new:
  // zero pool misses across the whole steady phase.
  ServeFixture* f = Fixture();
  const synth::Sample& sample = f->built.splits.test.samples.front();
  const RtpRequest request = RequestFromSample(sample);

  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  config.batch.max_linger_us = 1000;
  RtpService service(&f->built.world, f->model.get(), config);

  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = f->model->Predict(sample);
  }
  const int64_t served_before = service.requests_served();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 12;
  std::barrier sync(kThreads + 1);
  TensorPool::ArenaCounters baseline;
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic warm-up: every batch member runs its own Predict
      // on its own thread, so one Predict warms this thread's pool for
      // everything it will compute, whatever the batch composition.
      {
        NoGradGuard no_grad;
        ArenaGuard arena;
        f->model->Predict(sample);
      }
      sync.arrive_and_wait();  // all threads warm
      sync.arrive_and_wait();  // baseline counters captured
      for (int r = 0; r < kRequestsPerThread; ++r) {
        responses[t].push_back(service.Handle(request));
      }
    });
  }
  sync.arrive_and_wait();
  baseline = RtpService::pool_counters();
  sync.arrive_and_wait();
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(service.requests_served() - served_before,
            kThreads * kRequestsPerThread);
  EXPECT_EQ(service.batch_sheds(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRequestsPerThread));
    for (const RtpService::Response& resp : responses[t]) {
      ExpectPredictionBitwiseEq(resp.prediction, want);
    }
  }
  const TensorPool::ArenaCounters after = RtpService::pool_counters();
  EXPECT_EQ(after.misses - baseline.misses, 0u);
  EXPECT_GT(after.hits, baseline.hits);
}

TEST(ModelRegistryTest, PublishBumpsVersionAndTagsResponses) {
  ServeFixture* f = Fixture();
  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial, /*initial_version=*/7);
  EXPECT_EQ(registry.version(), 7);
  EXPECT_EQ(registry.swap_count(), 0u);

  RtpService service(&f->built.world, &registry, ServingConfig());
  const synth::Sample& s = f->built.splits.test.samples.front();
  RtpService::Response before = service.Handle(RequestFromSample(s));
  EXPECT_EQ(before.model_version, 7);

  // Publish the same weights reloaded through Save/Load: version must
  // move, predictions must not.
  const std::string path = ::testing::TempDir() + "/serve_swap_weights.bin";
  ASSERT_TRUE(f->model->Save(path).ok());
  auto reloaded = std::make_shared<core::M2g4Rtp>(f->model->config());
  ASSERT_TRUE(reloaded->Load(path).ok());
  EXPECT_EQ(registry.Publish(reloaded), 8);
  EXPECT_EQ(registry.version(), 8);
  EXPECT_EQ(registry.swap_count(), 1u);

  RtpService::Response after = service.Handle(RequestFromSample(s));
  EXPECT_EQ(after.model_version, 8);
  ExpectPredictionBitwiseEq(after.prediction, before.prediction);

  // A bad weights path must leave the registry untouched.
  auto bad = registry.PublishFromFile(f->model->config(),
                                      path + ".does_not_exist");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(registry.version(), 8);
}

TEST(ModelRegistryTest, PublishFromFileRejectsNonFiniteWeights) {
  // A weights file carrying a NaN must never reach live serving.
  ServeFixture* f = Fixture();
  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial, /*initial_version=*/5);
  core::M2g4Rtp poisoned(f->model->config());
  poisoned.Parameters().front().node()->value[0] = std::nanf("");
  const std::string path = ::testing::TempDir() + "/serve_nan_weights.bin";
  ASSERT_TRUE(poisoned.Save(path).ok());
  auto result = registry.PublishFromFile(f->model->config(), path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(registry.version(), 5);
  EXPECT_EQ(registry.swap_count(), 0u);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, SwapUnderConcurrentBatchedLoadDropsNothing) {
  // The hot-swap safety contract: a Publish racing live batched traffic
  // never drops, mixes, or double-serves a request. Every response must
  // carry correct outputs and the version of a snapshot that actually
  // existed when it was served.
  ServeFixture* f = Fixture();
  const auto& samples = f->built.splits.test.samples;
  const int kDistinct = std::min<int>(4, static_cast<int>(samples.size()));
  std::vector<RtpRequest> requests;
  std::vector<core::RtpPrediction> want;
  {
    NoGradGuard no_grad;
    for (int i = 0; i < kDistinct; ++i) {
      requests.push_back(RequestFromSample(samples[i]));
      want.push_back(f->model->Predict(samples[i]));
    }
  }

  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial);
  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  config.batch.max_linger_us = 1000;
  RtpService service(&f->built.world, &registry, config);
  const int64_t served_before = service.requests_served();

  // v2 = the same weights reloaded, so outputs stay deterministic while
  // the swap itself is observable through the version tags.
  const std::string path = ::testing::TempDir() + "/serve_swap_load.bin";
  ASSERT_TRUE(f->model->Save(path).ok());
  auto v2 = std::make_shared<core::M2g4Rtp>(f->model->config());
  ASSERT_TRUE(v2->Load(path).ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::barrier sync(kThreads + 1);
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kDistinct; ++i) {
          responses[t].push_back(service.Handle(requests[i]));
        }
      }
    });
  }
  sync.arrive_and_wait();
  // Mid-load publish from the main thread — the "load off-thread" path.
  registry.Publish(v2);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(registry.version(), 2);
  EXPECT_EQ(registry.swap_count(), 1u);
  EXPECT_EQ(service.requests_served() - served_before,
            kThreads * kRounds * kDistinct);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRounds * kDistinct));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kDistinct; ++i) {
        const RtpService::Response& resp = responses[t][r * kDistinct + i];
        ExpectPredictionBitwiseEq(resp.prediction, want[i]);
        EXPECT_TRUE(resp.model_version == 1 || resp.model_version == 2)
            << resp.model_version;
      }
    }
  }
  // After the swap drains, new requests are served by v2.
  RtpService::Response post = service.Handle(requests[0]);
  EXPECT_EQ(post.model_version, 2);
}

TEST(ModelRegistryTest, SwapToDifferentWeightsUnderBatchedLoadMatchesVersion) {
  // A batch member computes after its leader has dispatched it, so a
  // Publish can land between dispatch and compute. Alternate two models
  // with different weights under batched load: every response must be
  // byte-equal to Predict of the model its version tag names — proof
  // that each member computes with the snapshot its leader pinned.
  ServeFixture* f = Fixture();
  const auto& samples = f->built.splits.test.samples;
  const int kDistinct = std::min<int>(4, static_cast<int>(samples.size()));
  core::ModelConfig other_config = f->model->config();
  other_config.seed += 1;
  const std::shared_ptr<const core::M2g4Rtp> other =
      std::make_shared<core::M2g4Rtp>(other_config);
  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  std::vector<RtpRequest> requests;
  std::vector<core::RtpPrediction> want_initial, want_other;
  bool weights_matter = false;
  {
    NoGradGuard no_grad;
    for (int i = 0; i < kDistinct; ++i) {
      requests.push_back(RequestFromSample(samples[i]));
      want_initial.push_back(initial->Predict(samples[i]));
      want_other.push_back(other->Predict(samples[i]));
      weights_matter =
          weights_matter ||
          want_initial[i].location_route != want_other[i].location_route ||
          want_initial[i].location_times_min !=
              want_other[i].location_times_min;
    }
  }
  ASSERT_TRUE(weights_matter) << "the two models must disagree somewhere";

  // Odd versions serve `initial`, even versions serve `other`.
  ModelRegistry registry(initial);
  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  config.batch.max_linger_us = 200;
  RtpService service(&f->built.world, &registry, config);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::barrier sync(kThreads + 1);
  std::atomic<int> finished{0};
  std::vector<std::vector<RtpService::Response>> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kDistinct; ++i) {
          responses[t].push_back(service.Handle(requests[i]));
        }
      }
      finished.fetch_add(1);
    });
  }
  sync.arrive_and_wait();
  int publishes = 0;
  while (finished.load() < kThreads) {
    registry.Publish(publishes % 2 == 0 ? other : initial);
    ++publishes;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(registry.swap_count(), static_cast<uint64_t>(publishes));

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(),
              static_cast<size_t>(kRounds * kDistinct));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kDistinct; ++i) {
        const RtpService::Response& resp = responses[t][r * kDistinct + i];
        ASSERT_GE(resp.model_version, 1);
        ASSERT_LE(resp.model_version, 1 + publishes);
        SCOPED_TRACE(testing::Message() << "version " << resp.model_version);
        ExpectPredictionBitwiseEq(resp.prediction,
                                  resp.model_version % 2 == 1
                                      ? want_initial[i]
                                      : want_other[i]);
      }
    }
  }
}

TEST(TelemetryTest, ServingExportsCoverEveryStageAndCounter) {
  // End-to-end telemetry: a concurrent replay (so the thread-pool
  // gauges exist) plus one ETA call must leave every promised serving
  // metric visible in both export formats.
  ServeFixture* f = Fixture();
  RtpService service(&f->built.world, f->model.get());
  EtaService eta(&service);
  std::vector<RtpRequest> requests;
  const auto& samples = f->built.splits.test.samples;
  for (size_t i = 0; i < samples.size() && i < 6; ++i) {
    requests.push_back(RequestFromSample(samples[i]));
  }
  ASSERT_FALSE(requests.empty());
  ConcurrentReplayResult replay =
      ReplayConcurrently(service, requests, /*threads=*/2);
  EXPECT_EQ(replay.responses.size(), requests.size());
  EXPECT_FALSE(eta.Estimate(requests.front()).empty());
  EXPECT_EQ(eta.requests_served(), 1);
  // One batched request, so the batch histograms exist too.
  ServingConfig batched;
  batched.batching_enabled = true;
  RtpService batched_service(&f->built.world, f->model.get(), batched);
  batched_service.Handle(requests.front());

  const std::string prom = obs::ExportPrometheus();
  for (const char* needle :
       {"m2g_serve_stage_feature_extract_ms_bucket",
        "m2g_serve_stage_graph_build_ms_bucket",
        "m2g_serve_stage_encode_ms_bucket",
        "m2g_serve_stage_route_decode_ms_bucket",
        "m2g_serve_stage_eta_head_ms_bucket",
        "m2g_serve_request_ms_bucket",
        "m2g_serve_batch_queue_wait_ms_bucket",
        "m2g_serve_batch_size_bucket",
        "m2g_serve_rtp_requests_total", "m2g_serve_eta_requests_total",
        "m2g_pool_arena_hits", "m2g_pool_arena_misses",
        "m2g_threadpool_queue_depth",
        "m2g_threadpool_tasks_executed_total"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
  const std::string json = obs::ExportJson();
  for (const char* needle :
       {"\"serve.request.ms\"", "\"serve.eta.estimate.ms\"",
        "\"serve.batch.queue_wait.ms\"", "\"p50\"", "\"p95\"",
        "\"p99\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::HistogramSnapshot* request_ms =
      snap.FindHistogram("serve.request.ms");
  ASSERT_NE(request_ms, nullptr);
#ifndef M2G_OBS_DISABLED
  // The registry is process-wide, so earlier tests may have served too.
  EXPECT_GE(request_ms->count, requests.size());
  // Serving retained request trace trees and recorded wide events,
  // which export their own counter (compiled out with the events).
  EXPECT_FALSE(obs::RecentTraceTrees().empty());
  EXPECT_GT(obs::WideEventSink::Global().recorded(), 0u);
  EXPECT_NE(prom.find("m2g_obs_wide_events_recorded_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"obs.wide_events.recorded\""), std::string::npos);
#endif
  EXPECT_LE(request_ms->Quantile(0.50), request_ms->Quantile(0.95));
  EXPECT_LE(request_ms->Quantile(0.95), request_ms->Quantile(0.99));
}

// Request tracing compiles to nothing under -DM2G_OBS_DISABLED=ON; the
// tracing assertions skip themselves in that configuration.
#ifdef M2G_OBS_DISABLED
#define M2G_SKIP_IF_OBS_DISABLED() \
  GTEST_SKIP() << "event recording compiled out (M2G_OBS_DISABLED)"
#else
#define M2G_SKIP_IF_OBS_DISABLED() (void)0
#endif

TEST(ModelRegistryTest, WideEventsPairVersionWithItsBeamWidthUnderSwap) {
  // A wide event's model_version and beam_width must both come from the
  // snapshot that served the request. Alternate two models with beam
  // widths 1 and 3 under 4-thread load on each serving path (plain,
  // batched, encode sessions): every event must pair a version with the
  // beam width of the model published as that version.
  M2G_SKIP_IF_OBS_DISABLED();
  ServeFixture* f = Fixture();
  core::ModelConfig wide_config = f->model->config();
  ASSERT_EQ(wide_config.beam_width, 1);
  wide_config.beam_width = 3;
  const std::shared_ptr<const core::M2g4Rtp> narrow(
      f->model.get(), [](const core::M2g4Rtp*) {});
  const std::shared_ptr<const core::M2g4Rtp> wide =
      std::make_shared<core::M2g4Rtp>(wide_config);
  const auto& samples = f->built.splits.test.samples;
  std::vector<RtpRequest> requests;
  for (size_t i = 0; i < samples.size() && i < 4; ++i) {
    requests.push_back(RequestFromSample(samples[i]));
  }
  ASSERT_FALSE(requests.empty());

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  obs::SetEnabled(true);
  obs::WideEventOptions options;
  options.ring_capacity = kThreads * kRounds * requests.size();
  obs::WideEventSink::Global().Configure(options);
  for (const char* path : {"plain", "batched", "sessions"}) {
    SCOPED_TRACE(path);
    ServingConfig config;
    config.batching_enabled = std::string(path) == "batched";
    config.encode_sessions.enabled = std::string(path) == "sessions";
    // Odd versions serve beam width 1, even versions beam width 3.
    ModelRegistry registry(narrow);
    RtpService service(&f->built.world, &registry, config);
    obs::WideEventSink::Global().Clear();

    std::barrier sync(kThreads + 1);
    std::atomic<int> finished{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        sync.arrive_and_wait();
        for (int r = 0; r < kRounds; ++r) {
          for (const RtpRequest& req : requests) service.Handle(req);
        }
        finished.fetch_add(1);
      });
    }
    sync.arrive_and_wait();
    int publishes = 0;
    while (finished.load() < kThreads) {
      registry.Publish(publishes % 2 == 0 ? wide : narrow);
      ++publishes;
      std::this_thread::yield();
    }
    for (std::thread& th : threads) th.join();

    const std::vector<obs::WideEvent> events =
        obs::WideEventSink::Global().Recent();
    ASSERT_EQ(events.size(), kThreads * kRounds * requests.size());
    for (const obs::WideEvent& e : events) {
      ASSERT_GE(e.model_version, 1);
      ASSERT_LE(e.model_version, 1 + publishes);
      EXPECT_EQ(e.beam_width, e.model_version % 2 == 1 ? 1 : 3)
          << "version " << e.model_version;
    }
  }
  obs::WideEventSink::Global().Configure(obs::WideEventOptions{});
  obs::WideEventSink::Global().Clear();
}

TEST(BatchTracingTest, BatchedMembersRecordOwnStagesOnOwnThreads) {
  // A request served in a batch of size > 1 must finalize into a span
  // tree that carries its queue wait and its own graph-build and encode
  // spans, computed on its own thread, and whose per-stage sums fit
  // inside the whole-request latency.
  M2G_SKIP_IF_OBS_DISABLED();
  ServeFixture* f = Fixture();
  obs::SetEnabled(true);
  obs::ClearTraceTrees();
  obs::WideEventSink::Global().Configure(obs::WideEventOptions{});

  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  // Generous linger: the barrier releases all four submitters together,
  // so the leader collects a full batch instead of timing out.
  config.batch.max_linger_us = 100000;
  RtpService service(&f->built.world, f->model.get(), config);

  const auto& samples = f->built.splits.test.samples;
  ASSERT_GE(samples.size(), 1u);
  constexpr int kThreads = 4;
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const RtpRequest req =
          RequestFromSample(samples[t % samples.size()]);
      sync.arrive_and_wait();
      service.Handle(req);
    });
  }
  for (std::thread& th : threads) th.join();

  // Wide events: batch attribution present and per-stage sums within
  // the request's own wall time.
  std::vector<uint64_t> batched_traces;
  for (const obs::WideEvent& e : obs::WideEventSink::Global().Recent()) {
    if (e.tag != "rtp") continue;
    EXPECT_TRUE(e.batched);
    EXPECT_FALSE(e.shed);
    EXPECT_GT(e.num_locations, 0);
    EXPECT_EQ(e.beam_width, f->model->config().beam_width);
    const double stage_sum = e.feature_extract_ms + e.queue_wait_ms +
                             e.graph_build_ms + e.encode_ms + e.decode_ms +
                             e.eta_head_ms;
    EXPECT_LE(stage_sum, e.total_ms + 1e-3);
    if (e.batch_size >= 2) batched_traces.push_back(e.trace_id);
  }
  // The barrier + linger make a full batch overwhelmingly likely, but
  // the scheduler is free to split; require that batching was observed,
  // not a specific composition.
  EXPECT_GE(batched_traces.size(), 2u);

  int member_trees = 0;
  std::vector<int> encode_slots;
  for (const obs::TraceTree& tree : obs::RecentTraceTrees()) {
    if (tree.tag != "rtp") continue;
    ++member_trees;
    // Parent/child invariants: exactly one root (the request span), and
    // every non-root parent id resolves within the tree.
    const obs::TraceEvent* root = nullptr;
    for (const obs::TraceEvent& span : tree.spans) {
      EXPECT_EQ(span.trace_id, tree.trace_id);
      if (span.parent_span_id == 0) {
        EXPECT_EQ(root, nullptr) << "second root in tree";
        root = &span;
        continue;
      }
      bool parent_found = false;
      for (const obs::TraceEvent& other : tree.spans) {
        if (other.span_id == span.parent_span_id) {
          parent_found = true;
          break;
        }
      }
      EXPECT_TRUE(parent_found) << span.stage;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_STREQ(root->stage, "serve.request.ms");

    const obs::TraceEvent* queue_wait = nullptr;
    const obs::TraceEvent* graph = nullptr;
    const obs::TraceEvent* encode = nullptr;
    for (const obs::TraceEvent& span : tree.spans) {
      const std::string stage = span.stage;
      if (stage == "serve.batch.queue_wait.ms") queue_wait = &span;
      if (stage == "serve.stage.graph_build.ms") graph = &span;
      if (stage == "serve.stage.encode.ms") encode = &span;
    }
    ASSERT_NE(queue_wait, nullptr);
    EXPECT_GE(queue_wait->duration_ms, 0.0);
    if (std::find(batched_traces.begin(), batched_traces.end(),
                  tree.trace_id) == batched_traces.end()) {
      continue;
    }
    // A batched member computed its own stages on its own thread: the
    // graph and encode spans sit in its tree, recorded by the thread
    // that opened its root.
    ASSERT_NE(graph, nullptr);
    ASSERT_NE(encode, nullptr);
    EXPECT_EQ(graph->thread_slot, root->thread_slot);
    EXPECT_EQ(encode->thread_slot, root->thread_slot);
    EXPECT_EQ(encode->batch_size, 1);
    encode_slots.push_back(encode->thread_slot);
  }
  EXPECT_EQ(member_trees, kThreads);
  EXPECT_EQ(encode_slots.size(), batched_traces.size());
  // Members of one batch encode in parallel, one thread each. Slots are
  // only distinct below the shard cap: a long-lived process (e.g. under
  // --gtest_repeat) may have handed out every slot, and later threads
  // then share the last one.
  std::sort(encode_slots.begin(), encode_slots.end());
  if (encode_slots.empty() ||
      encode_slots.back() < obs::internal::kMaxShards - 1) {
    EXPECT_EQ(std::adjacent_find(encode_slots.begin(), encode_slots.end()),
              encode_slots.end());
  }
  obs::ClearTraceTrees();
  obs::WideEventSink::Global().Clear();
}

/// Minimal blocking HTTP GET against loopback (mirrors obs_test's).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(AdminServerUnderLoadTest, ScrapesStayValidWhileBatchedServing) {
  // The admin endpoint must answer every route correctly while 8
  // threads push batched requests through the service (this test runs
  // under TSan in CI, so it is also the data-race gate for the
  // exporters racing live recording).
  ServeFixture* f = Fixture();
  obs::SetEnabled(true);

  ServingConfig config;
  config.batching_enabled = true;
  config.batch.max_batch_size = 4;
  config.batch.max_linger_us = 500;
  RtpService service(&f->built.world, f->model.get(), config);

  obs::AdminOptions options;
  options.extra_health_json = [&service] {
    return std::string("\"requests_served\": ") +
           std::to_string(service.requests_served());
  };
  obs::AdminServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const auto& samples = f->built.splits.test.samples;
  constexpr int kServers = 8;
  constexpr int kRounds = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};
  std::atomic<int> scrapes{0};
  std::thread scraper([&server, &stop, &scrape_failures, &scrapes] {
    const char* paths[] = {"/metrics", "/metrics.json", "/traces",
                           "/events", "/healthz"};
    size_t i = 0;
    // At least one full sweep of every route, then keep scraping until
    // the serving threads drain.
    while (i < 5 || !stop.load(std::memory_order_acquire)) {
      const std::string resp = HttpGet(server.port(), paths[i % 5]);
      if (resp.find(" 200 OK") == std::string::npos) {
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });
  std::vector<std::thread> servers;
  for (int t = 0; t < kServers; ++t) {
    servers.emplace_back([&, t] {
      const RtpRequest req =
          RequestFromSample(samples[t % samples.size()]);
      for (int r = 0; r < kRounds; ++r) service.Handle(req);
    });
  }
  for (std::thread& th : servers) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GE(scrapes.load(), 5);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(scrapes.load()));
  EXPECT_EQ(service.requests_served(), kServers * kRounds);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(EncodeSessionTest, SessionHandleMatchesStatelessBitwise) {
  // Session-routed responses are an optimization, never a behavior
  // change: a growing-pending stream must match the stateless service
  // bitwise, request by request.
  ServeFixture* f = Fixture();
  const synth::Sample* sample = nullptr;
  for (const synth::Sample& s : f->built.splits.test.samples) {
    if (sample == nullptr || s.num_locations() > sample->num_locations()) {
      sample = &s;
    }
  }
  ASSERT_GE(sample->num_locations(), 3);

  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, f->model.get(), config);
  RtpService stateless(&f->built.world, f->model.get());
  ASSERT_NE(service.session_store(), nullptr);

  const RtpRequest full = RequestFromSample(*sample);
  for (int count = 2; count <= static_cast<int>(full.pending.size());
       ++count) {
    RtpRequest req = full;
    req.pending.resize(count);
    RtpService::Response got = service.Handle(req);
    RtpService::Response want = stateless.Handle(req);
    ExpectPredictionBitwiseEq(got.prediction, want.prediction);
  }
  EXPECT_EQ(service.session_store()->sessions(), 1u);
  EXPECT_GT(service.session_store()->bytes(), 0u);
}

TEST(EncodeSessionTest, LruEvictionHoldsByteBudget) {
  // A byte budget that fits roughly two sessions: serving many couriers
  // must keep evicting the least recently used while the most recent
  // always survives — the store never grows without bound.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();

  // Measure one session's footprint with an unbounded store first.
  size_t one_session = 0;
  {
    ServingConfig config;
    config.encode_sessions.enabled = true;
    RtpService probe(&f->built.world, f->model.get(), config);
    probe.Handle(RequestFromSample(s));
    one_session = probe.session_store()->bytes();
    ASSERT_GT(one_session, 0u);
  }

  ServingConfig config;
  config.encode_sessions.enabled = true;
  config.encode_sessions.byte_budget = 2 * one_session + one_session / 2;
  RtpService service(&f->built.world, f->model.get(), config);
  constexpr int kCouriers = 8;
  for (int c = 0; c < kCouriers; ++c) {
    RtpRequest req = RequestFromSample(s);
    req.courier.id = 1000 + c;
    service.Handle(req);
    EXPECT_LE(service.session_store()->sessions(), 3u);
  }
  const EncodeSessionStore* store = service.session_store();
  EXPECT_LT(store->sessions(), kCouriers);
  EXPECT_GE(store->sessions(), 1u);
  EXPECT_LE(store->bytes(), config.encode_sessions.byte_budget);
  // An evicted courier simply re-warms: same bits, fresh session.
  RtpRequest req = RequestFromSample(s);
  req.courier.id = 1000;
  RtpService::Response again = service.Handle(req);
  RtpService stateless(&f->built.world, f->model.get());
  ExpectPredictionBitwiseEq(
      again.prediction,
      stateless.Handle(req).prediction);
}

TEST(EncodeSessionTest, ConcurrentSameCourierSerializesOnSession) {
  // Many threads hammering ONE courier: the session mutex serializes the
  // delta stream (this test runs in the TSan matrix), every response
  // bitwise-matches the stateless reference, and the store holds exactly
  // one session at the end.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();
  const RtpRequest request = RequestFromSample(s);
  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = f->model->Predict(s);
  }

  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, f->model.get(), config);
  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        RtpService::Response resp = service.Handle(request);
        ExpectPredictionBitwiseEq(resp.prediction, want);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(service.requests_served(), kThreads * kRounds);
  EXPECT_EQ(service.session_store()->sessions(), 1u);
}

TEST(EncodeSessionTest, SnapshotHotSwapInvalidatesSessions) {
  // After a Publish, a warm session must never serve encodings cached
  // under the old weights: the next response must match the NEW model's
  // stateless prediction bitwise.
  ServeFixture* f = Fixture();
  const synth::Sample& s = f->built.splits.test.samples.front();
  const RtpRequest request = RequestFromSample(s);

  std::shared_ptr<const core::M2g4Rtp> initial(f->model.get(),
                                               [](const core::M2g4Rtp*) {});
  ModelRegistry registry(initial, /*initial_version=*/3);
  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, &registry, config);

  // Warm the session on the initial snapshot (second call delta-serves).
  RtpService::Response warm1 = service.Handle(request);
  RtpService::Response warm2 = service.Handle(request);
  EXPECT_EQ(warm1.model_version, 3);
  EXPECT_EQ(warm2.model_version, 3);
  ExpectPredictionBitwiseEq(warm2.prediction, warm1.prediction);

  // Publish genuinely different weights (fresh seed, same shape).
  core::ModelConfig other_config = f->model->config();
  other_config.seed = f->model->config().seed + 41;
  auto swapped = std::make_shared<core::M2g4Rtp>(other_config);
  EXPECT_EQ(registry.Publish(swapped), 4);

  core::RtpPrediction want;
  {
    NoGradGuard no_grad;
    want = swapped->Predict(s);
  }
  RtpService::Response after = service.Handle(request);
  EXPECT_EQ(after.model_version, 4);
  ExpectPredictionBitwiseEq(after.prediction, want);
  // And the session re-warms under the new version: still the new bits.
  RtpService::Response again = service.Handle(request);
  ExpectPredictionBitwiseEq(again.prediction, want);
}

/// A counter's value in a /metrics body (0 when absent).
double PromCounter(const std::string& body, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = body.find(key);
  return at == std::string::npos
             ? 0
             : std::strtod(body.c_str() + at + key.size(), nullptr);
}

TEST(EncodeSessionTest, FallbackReasonsExportThroughEventsAndMetrics) {
  // An operator must be able to tell, from the admin port alone, which
  // encode path each session request took and why. Script cold -> delta
  // -> global change -> structural and read the reasons back.
  M2G_SKIP_IF_OBS_DISABLED();
  ServeFixture* f = Fixture();
  const synth::Sample* sample = nullptr;
  for (const synth::Sample& s : f->built.splits.test.samples) {
    if (sample == nullptr || s.num_locations() > sample->num_locations()) {
      sample = &s;
    }
  }
  ASSERT_GE(sample->num_locations(), 7);
  obs::SetEnabled(true);
  obs::WideEventSink::Global().Clear();
  obs::AdminServer server;
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::string before = HttpGet(server.port(), "/metrics");

  ServingConfig config;
  config.encode_sessions.enabled = true;
  RtpService service(&f->built.world, f->model.get(), config);
  const RtpRequest full = RequestFromSample(*sample);
  RtpRequest req = full;
  req.pending.resize(4);
  service.Handle(req);  // cold
  req.pending.resize(5);
  service.Handle(req);  // one arrival: delta
  req.weather = (req.weather + 1) % synth::kNumWeatherCodes;
  service.Handle(req);  // global embedding changed
  req.pending.assign(full.pending.begin(), full.pending.begin() + 7);
  service.Handle(req);  // two arrivals at once: structural

  const std::string events = HttpGet(server.port(), "/events");
  const std::string after = HttpGet(server.port(), "/metrics");
  server.Stop();
  obs::WideEventSink::Global().Clear();

  const std::string key = "\"encode_fallback\": \"";
  std::vector<std::string> reasons;
  for (size_t at = events.find(key); at != std::string::npos;
       at = events.find(key, at)) {
    at += key.size();
    reasons.push_back(events.substr(at, events.find('"', at) - at));
  }
  EXPECT_EQ(reasons, (std::vector<std::string>{"cold", "none",
                                               "global_changed",
                                               "structural"}));
  auto moved = [&](const std::string& name) {
    return PromCounter(after, name) - PromCounter(before, name);
  };
  EXPECT_EQ(moved("m2g_encode_fallback_cold_total"), 1);
  EXPECT_EQ(moved("m2g_encode_delta_steps_total"), 1);
  EXPECT_EQ(moved("m2g_encode_fallback_global_changed_total"), 1);
  EXPECT_EQ(moved("m2g_encode_fallback_structural_total"), 1);
  EXPECT_EQ(moved("m2g_encode_fallback_capacity_total"), 0);
  EXPECT_EQ(moved("m2g_encode_fallback_dirty_spread_total"), 0);
  EXPECT_EQ(moved("m2g_encode_full_fallbacks_total"), 2);
  // Reasons that never fired still export, at their running totals.
  EXPECT_NE(after.find("\nm2g_encode_fallback_refresh_total "),
            std::string::npos);
  EXPECT_NE(after.find("\nm2g_encode_fallback_disabled_total "),
            std::string::npos);
}

}  // namespace
}  // namespace m2g::serve
