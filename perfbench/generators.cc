#include "generators.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <map>
#include <type_traits>

#include "common/check.h"
#include "common/rng.h"
#include "serve/replay.h"
#include "synth/courier.h"

namespace perfbench {
namespace {

namespace serve = m2g::serve;
namespace synth = m2g::synth;
using m2g::Rng;

/// Distinct streams per workload, so no two workloads share inputs.
uint64_t Salted(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

// Trips a trip_replay pass replays; TripLengthMix() scales the simulator's
// trip-length histogram to this many.
constexpr int kReplayTrips = 220;

// Generated orders fall in the first kCourierAois AOIs a courier serves
// (every courier serves at least that many), in turn (see MakeOrder), so
// the AOI level of every generated request has this many nodes and its
// cost does not move with the seed's choice of courier.
constexpr int kCourierAois = 10;

// Fixed seed of concurrent_batched's size order (see MakeConcurrentBatched).
constexpr uint64_t kBatchedSizeOrderSeed = 20230707;

/// An order of `courier`'s in AOI id % kCourierAois of its first
/// kCourierAois AOIs, accepted before `now` and due 100-140 minutes after
/// acceptance. Orders with consecutive ids take turns over the AOIs, so any
/// kCourierAois of them span all of them and the AOI level's size does not
/// move with the seed.
synth::Order MakeOrder(const synth::World& world,
                       const synth::CourierProfile& courier, double now,
                       int id, Rng* rng) {
  M2G_CHECK_GE(static_cast<int>(courier.served_aois.size()), kCourierAois);
  synth::Order o;
  o.id = id;
  o.aoi_id = courier.served_aois[id % kCourierAois];
  o.pos = world.SamplePointInAoi(o.aoi_id, rng);
  o.accept_time_min = now - rng->Uniform(0, 60);
  o.deadline_min = o.accept_time_min + rng->Uniform(100, 140);
  return o;
}

/// A request context for `courier` standing at one of its AOIs.
serve::RtpRequest MakeContext(const synth::World& world,
                              const synth::CourierProfile& courier, Rng* rng) {
  serve::RtpRequest req;
  req.courier = courier;
  req.courier_pos = world.aoi(courier.served_aois.front()).center;
  req.query_time_min = rng->Uniform(9 * 60, 16 * 60);
  req.weather = rng->UniformInt(0, 3);
  req.weekday = rng->UniformInt(0, 6);
  return req;
}

class ByteWriter {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  template <typename T>
  void PutVector(const std::vector<T>& values) {
    Put(values.size());
    for (const T& v : values) Put(v);
  }
  void PutCourier(const synth::CourierProfile& c) {
    Put(c.id);
    Put(c.avg_working_hours);
    Put(c.avg_speed_mps);
    Put(c.attendance);
    Put(c.service_time_mean_min);
    Put(c.home_district);
    PutVector(c.served_aois);
    PutVector(c.aoi_preference);
  }
  // Field by field: these structs have padding, whose bytes are unspecified.
  void PutOrders(const std::vector<synth::Order>& orders) {
    Put(orders.size());
    for (const synth::Order& o : orders) {
      Put(o.id);
      Put(o.pos);
      Put(o.aoi_id);
      Put(o.accept_time_min);
      Put(o.deadline_min);
    }
  }
  void PutTasks(const std::vector<synth::LocationTask>& tasks) {
    Put(tasks.size());
    for (const synth::LocationTask& t : tasks) {
      Put(t.order_id);
      Put(t.pos);
      Put(t.aoi_id);
      Put(t.aoi_type);
      Put(t.accept_time_min);
      Put(t.deadline_min);
      Put(t.dist_from_courier_m);
    }
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace

std::vector<int> TripLengthMix() {
  const synth::DataConfig config;
  const std::vector<synth::TripRecord> trips =
      synth::SimulateAllTrips(config, nullptr, nullptr);
  std::vector<int> hist(config.max_locations + 1, 0);
  int total = 0;
  for (const synth::TripRecord& trip : trips) {
    const int length = static_cast<int>(trip.served.size());
    if (length >= config.min_locations && length <= config.max_locations) {
      ++hist[length];
      ++total;
    }
  }
  M2G_CHECK_GT(total, 0);
  std::vector<int> mix(hist.size(), 0);
  for (size_t length = 0; length < hist.size(); ++length) {
    mix[length] = static_cast<int>(
        std::lround(static_cast<double>(hist[length]) * kReplayTrips / total));
  }
  return mix;
}

ServingInputs MakeTripReplay(uint64_t seed) {
  const std::vector<int> mix = TripLengthMix();
  synth::DataConfig config;
  config.seed = Salted(seed, 1);
  ServingInputs in;
  std::vector<synth::CourierProfile> couriers;
  const std::vector<synth::TripRecord> trips =
      synth::SimulateAllTrips(config, &in.world, &couriers);

  Rng rng(Salted(seed, 2));
  std::vector<std::pair<int, int>> picked;  // (trip index, kept length)
  for (int length = 0; length < static_cast<int>(mix.size()); ++length) {
    if (mix[length] == 0) continue;
    std::vector<int> candidates;
    for (int t = 0; t < static_cast<int>(trips.size()); ++t) {
      if (static_cast<int>(trips[t].served.size()) >= length) {
        candidates.push_back(t);
      }
    }
    M2G_CHECK(!candidates.empty());
    for (int k = 0; k < mix[length]; ++k) {
      const int pick = rng.UniformInt(0, static_cast<int>(candidates.size()) - 1);
      picked.emplace_back(candidates[pick], length);
    }
  }
  rng.Shuffle(&picked);
  for (const auto& [index, length] : picked) {
    synth::TripRecord trip = trips[index];
    trip.served.resize(length);
    const auto courier = std::find_if(
        couriers.begin(), couriers.end(),
        [&](const synth::CourierProfile& c) { return c.id == trip.courier_id; });
    M2G_CHECK(courier != couriers.end());
    for (serve::RtpRequest& req : serve::ReplayTrip(trip, *courier)) {
      in.requests.push_back(std::move(req));
    }
  }
  return in;
}

ServingInputs MakeOrderStream(uint64_t seed) {
  Rng rng(Salted(seed, 3));
  ServingInputs in;
  in.world = synth::GenerateWorld(synth::WorldConfig{}, &rng);
  std::vector<synth::CourierProfile> couriers =
      synth::GenerateCouriers(in.world, synth::CourierConfig{}, &rng);
  rng.Shuffle(&couriers);
  M2G_CHECK_GE(static_cast<int>(couriers.size()), kStreamCouriers);

  // Each courier's climb: three arrivals, then the oldest order is picked
  // up. The courier's position and clock stay fixed within a climb (the
  // app re-queries while orders are dispatched to a waiting courier), so
  // consecutive requests differ by one order — the delta-encode case. The
  // rhythm, not the seed, sets n at every step.
  std::vector<std::vector<serve::RtpRequest>> climbs(kStreamCouriers);
  int next_id = 0;
  for (int c = 0; c < kStreamCouriers; ++c) {
    const serve::RtpRequest context = MakeContext(in.world, couriers[c], &rng);
    std::deque<synth::Order> pending;
    for (int i = 0; i < kStreamStartOrders; ++i) {
      pending.push_back(MakeOrder(in.world, couriers[c],
                                  context.query_time_min, next_id++, &rng));
    }
    for (int step = 0;; ++step) {
      serve::RtpRequest req = context;
      req.pending.assign(pending.begin(), pending.end());
      climbs[c].push_back(std::move(req));
      if (static_cast<int>(pending.size()) == kStreamEndOrders) break;
      if (step % 4 == 3) {
        pending.pop_front();
      } else {
        pending.push_back(MakeOrder(in.world, couriers[c],
                                    context.query_time_min, next_id++, &rng));
      }
    }
  }
  for (size_t step = 0; step < climbs[0].size(); ++step) {
    for (int c = 0; c < kStreamCouriers; ++c) {
      in.requests.push_back(std::move(climbs[c][step]));
    }
  }
  return in;
}

ServingInputs MakeConcurrentBatched(uint64_t seed) {
  Rng rng(Salted(seed, 4));
  ServingInputs in;
  in.world = synth::GenerateWorld(synth::WorldConfig{}, &rng);
  const std::vector<synth::CourierProfile> couriers =
      synth::GenerateCouriers(in.world, synth::CourierConfig{}, &rng);
  // The order of sizes in the stream is shuffled once under a fixed seed,
  // not the workload seed: which sizes the four clients send together sets
  // the batches, so a seed-chosen order would move latency_p99_ms with the
  // seed.
  std::vector<int> sizes;
  for (int i = 0; i < kBatchedRequests; ++i) sizes.push_back(20 + 10 * (i % 4));
  Rng order_rng(kBatchedSizeOrderSeed);
  order_rng.Shuffle(&sizes);
  int next_id = 0;
  for (const int n : sizes) {
    const synth::CourierProfile& courier = couriers[rng.UniformInt(
        0, static_cast<int>(couriers.size()) - 1)];
    serve::RtpRequest req = MakeContext(in.world, courier, &rng);
    for (int k = 0; k < n; ++k) {
      req.pending.push_back(
          MakeOrder(in.world, courier, req.query_time_min, next_id++, &rng));
    }
    in.requests.push_back(std::move(req));
  }
  return in;
}

std::vector<int> SampleSizes(const synth::Dataset& dataset) {
  std::vector<int> sizes;
  for (const synth::Sample& s : dataset.samples) {
    sizes.push_back(s.num_locations());
  }
  return sizes;
}

namespace {

/// A dataset with one sample per entry of `sizes`, in that order: for each
/// size a sample of `pool` drawn with that many locations, or of the
/// nearest size `pool` has (the larger on a tie).
synth::Dataset DrawSizes(const synth::Dataset& pool,
                         const std::vector<int>& sizes, Rng* rng) {
  std::map<int, std::vector<int>> by_size;  // locations -> pool indices
  for (int i = 0; i < pool.size(); ++i) {
    by_size[pool.samples[i].num_locations()].push_back(i);
  }
  M2G_CHECK(!by_size.empty());
  synth::Dataset out;
  for (const int size : sizes) {
    auto it = by_size.lower_bound(size);
    if (it == by_size.end() ||
        (it != by_size.begin() && it->first != size &&
         size - std::prev(it)->first < it->first - size)) {
      --it;
    }
    const std::vector<int>& candidates = it->second;
    out.samples.push_back(pool.samples[candidates[rng->UniformInt(
        0, static_cast<int>(candidates.size()) - 1)]]);
  }
  return out;
}

}  // namespace

TrainInputs MakeTrainEpoch(uint64_t seed) {
  // The sample sizes, in order, of the default DataConfig's splits.
  const synth::DatasetSplits standard = synth::BuildDataset(synth::DataConfig{});
  synth::DataConfig config;
  config.seed = Salted(seed, 5);
  synth::DatasetSplits splits = synth::BuildDataset(config);
  // Validation draws from all three splits: the held-out days alone can
  // lack the largest sizes. The validation pass only adds cost to the
  // epoch, so it does not matter that its samples may be trained on.
  synth::Dataset all = splits.val;
  for (const synth::Dataset* d : {&splits.test, &splits.train}) {
    all.samples.insert(all.samples.end(), d->samples.begin(),
                       d->samples.end());
  }
  Rng rng(Salted(seed, 6));
  TrainInputs in;
  in.train = DrawSizes(splits.train, SampleSizes(standard.train), &rng);
  in.val = DrawSizes(all, SampleSizes(standard.val), &rng);
  return in;
}

std::string SerializeRequests(
    const std::vector<serve::RtpRequest>& requests) {
  ByteWriter w;
  w.Put(requests.size());
  for (const serve::RtpRequest& r : requests) {
    w.PutCourier(r.courier);
    w.Put(r.courier_pos);
    w.Put(r.query_time_min);
    w.Put(r.weather);
    w.Put(r.weekday);
    w.PutOrders(r.pending);
  }
  return w.Take();
}

std::string SerializeDataset(const synth::Dataset& dataset) {
  ByteWriter w;
  w.Put(dataset.samples.size());
  for (const synth::Sample& s : dataset.samples) {
    w.Put(s.courier_id);
    w.Put(s.day);
    w.Put(s.weekday);
    w.Put(s.weather);
    w.Put(s.query_time_min);
    w.Put(s.courier_pos);
    w.PutCourier(s.courier);
    w.PutTasks(s.locations);
    w.PutVector(s.aoi_node_ids);
    w.PutVector(s.loc_to_aoi);
    w.PutVector(s.route_label);
    w.PutVector(s.time_label_min);
    w.PutVector(s.aoi_route_label);
    w.PutVector(s.aoi_time_label_min);
  }
  return w.Take();
}

}  // namespace perfbench
