#include "synth/dataset.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace m2g::synth {

void ExtractFeatures(const World& world, const RtpRequest& request,
                     Sample* out) {
  M2G_CHECK(!request.pending.empty());
  Sample& s = *out;
  // Reset by clearing each vector rather than assigning a fresh Sample,
  // so a reused `out` keeps its vector capacity.
  s.day = 0;
  s.locations.clear();
  s.aoi_node_ids.clear();
  s.loc_to_aoi.clear();
  s.route_label.clear();
  s.time_label_min.clear();
  s.aoi_route_label.clear();
  s.aoi_time_label_min.clear();
  s.courier_id = request.courier.id;
  s.courier = request.courier;
  s.courier_pos = request.courier_pos;
  s.query_time_min = request.query_time_min;
  s.weather = request.weather;
  s.weekday = request.weekday;

  // Node order: ascending order id, model-agnostic, so no model can read
  // the label order off the input ordering.
  std::vector<const Order*> by_id;
  by_id.reserve(request.pending.size());
  for (const Order& o : request.pending) by_id.push_back(&o);
  std::sort(by_id.begin(), by_id.end(), [](const Order* a, const Order* b) {
    return a->id < b->id;
  });

  // AOI nodes: the distinct AOI ids, ascending.
  for (const Order* o : by_id) s.aoi_node_ids.push_back(o->aoi_id);
  std::sort(s.aoi_node_ids.begin(), s.aoi_node_ids.end());
  s.aoi_node_ids.erase(
      std::unique(s.aoi_node_ids.begin(), s.aoi_node_ids.end()),
      s.aoi_node_ids.end());

  for (const Order* o : by_id) {
    LocationTask task;
    task.order_id = o->id;
    task.pos = o->pos;
    task.aoi_id = o->aoi_id;
    task.aoi_type = static_cast<int>(world.aoi(o->aoi_id).type);
    task.accept_time_min = o->accept_time_min;
    task.deadline_min = o->deadline_min;
    task.dist_from_courier_m = geo::ApproxMeters(request.courier_pos, o->pos);
    s.locations.push_back(task);
    s.loc_to_aoi.push_back(static_cast<int>(
        std::lower_bound(s.aoi_node_ids.begin(), s.aoi_node_ids.end(),
                         o->aoi_id) -
        s.aoi_node_ids.begin()));
  }
}

RtpRequest TripRequest(const TripRecord& trip, const CourierProfile& courier,
                       int served_prefix) {
  const int total = static_cast<int>(trip.served.size());
  M2G_CHECK(served_prefix >= 0 && served_prefix < total);
  RtpRequest req;
  req.courier = courier;
  req.weather = trip.weather;
  req.weekday = trip.weekday;
  if (served_prefix == 0) {
    req.courier_pos = trip.start_pos;
    req.query_time_min = trip.start_time_min;
  } else {
    req.courier_pos = trip.served[served_prefix - 1].order.pos;
    req.query_time_min = trip.served[served_prefix - 1].departure_time_min;
  }
  req.pending.reserve(total - served_prefix);
  for (int j = served_prefix; j < total; ++j) {
    req.pending.push_back(trip.served[j].order);
  }
  return req;
}

bool SnapshotFromTrip(const World& world, const TripRecord& trip,
                      const CourierProfile& courier, int served_prefix,
                      const DataConfig& config, Sample* out) {
  const int n = static_cast<int>(trip.served.size()) - served_prefix;
  M2G_CHECK(served_prefix >= 0 && n > 0);
  if (n < config.min_locations || n > config.max_locations) return false;
  const RtpRequest req = TripRequest(trip, courier, served_prefix);
  Sample s;
  ExtractFeatures(world, req, &s);
  if (s.num_aois() > config.max_aois) return false;
  s.day = trip.day;

  // Route and time labels from the realized service order; `locations`
  // is sorted by order id.
  s.time_label_min.assign(n, 0.0);
  s.aoi_time_label_min.assign(s.num_aois(), 0.0);
  std::vector<bool> aoi_seen(s.num_aois(), false);
  for (int j = 0; j < n; ++j) {
    const ServedOrder& so = trip.served[served_prefix + j];
    const int node = static_cast<int>(
        std::lower_bound(s.locations.begin(), s.locations.end(),
                         so.order.id,
                         [](const LocationTask& t, int id) {
                           return t.order_id < id;
                         }) -
        s.locations.begin());
    const double gap = so.arrival_time_min - s.query_time_min;
    s.route_label.push_back(node);
    s.time_label_min[node] = gap;
    const int aoi_node = s.loc_to_aoi[node];
    if (!aoi_seen[aoi_node]) {
      aoi_seen[aoi_node] = true;
      s.aoi_route_label.push_back(aoi_node);
      // Paper: AOI arrival time = arrival at the first location in it.
      s.aoi_time_label_min[aoi_node] = gap;
    }
  }
  *out = std::move(s);
  return true;
}

std::vector<TripRecord> SimulateAllTrips(
    const DataConfig& config, World* world_out,
    std::vector<CourierProfile>* couriers_out) {
  Rng rng(config.seed);
  Rng world_rng = rng.Fork();
  Rng courier_rng = rng.Fork();
  Rng sim_rng = rng.Fork();

  World world = GenerateWorld(config.world, &world_rng);
  std::vector<CourierProfile> couriers =
      GenerateCouriers(world, config.couriers, &courier_rng);

  TimeModel time_model(config.time_params);
  RoutePolicy policy(&time_model, config.policy_params);
  DaySimulator simulator(&world, &time_model, &policy, config.trips);

  std::vector<TripRecord> trips;
  int next_order_id = 0;
  for (int day = 0; day < config.num_days; ++day) {
    // One weather draw per day, shared by all couriers (it is a city).
    const std::vector<double> weather_weights = {0.55, 0.25, 0.15, 0.05};
    Rng day_rng = sim_rng.Fork();
    const int weather = day_rng.SampleIndex(weather_weights);
    for (const CourierProfile& courier : couriers) {
      Rng courier_day_rng = day_rng.Fork();
      auto day_trips = simulator.SimulateDay(courier, day, weather,
                                             &courier_day_rng,
                                             &next_order_id);
      for (auto& t : day_trips) trips.push_back(std::move(t));
    }
  }
  if (world_out != nullptr) *world_out = world;
  if (couriers_out != nullptr) *couriers_out = couriers;
  return trips;
}

namespace {

DatasetSplits SplitAndSnapshot(const DataConfig& config,
                               const std::vector<TripRecord>& trips,
                               const World& world,
                               const std::vector<CourierProfile>& couriers) {
  // Day-based split with the paper's 65:17:10 proportions.
  const int total_days = config.num_days;
  int train_days = std::max(1, static_cast<int>(total_days * 65.0 / 92.0));
  int val_days = std::max(1, static_cast<int>(total_days * 17.0 / 92.0));
  if (train_days + val_days >= total_days) {
    train_days = std::max(1, total_days - 2);
    val_days = 1;
  }

  Rng snap_rng(config.seed ^ 0x5a5a5a5a5a5a5a5aULL);
  DatasetSplits splits;
  for (const TripRecord& trip : trips) {
    Dataset* target = &splits.train;
    if (trip.day >= train_days + val_days) {
      target = &splits.test;
    } else if (trip.day >= train_days) {
      target = &splits.val;
    }
    const CourierProfile& courier = couriers[trip.courier_id];

    auto add_snapshot = [&](int prefix) {
      Sample s;
      if (SnapshotFromTrip(world, trip, courier, prefix, config, &s)) {
        target->samples.push_back(std::move(s));
      }
    };
    add_snapshot(0);
    const int total = static_cast<int>(trip.served.size());
    if (total >= config.min_locations + 2 &&
        snap_rng.Bernoulli(config.mid_trip_snapshot_prob)) {
      const int prefix =
          snap_rng.UniformInt(1, total - config.min_locations);
      add_snapshot(prefix);
    }
  }
  return splits;
}

}  // namespace

DatasetSplits BuildDataset(const DataConfig& config) {
  return BuildWorldAndDataset(config).splits;
}

BuiltWorld BuildWorldAndDataset(const DataConfig& config) {
  World world(config.world, {});
  std::vector<CourierProfile> couriers;
  std::vector<TripRecord> trips =
      SimulateAllTrips(config, &world, &couriers);
  DatasetSplits splits = SplitAndSnapshot(config, trips, world, couriers);
  return BuiltWorld{std::move(world), std::move(couriers),
                    std::move(splits)};
}

DataStats ComputeDataStats(const Dataset& dataset) {
  DataStats stats;
  stats.num_samples = dataset.size();
  constexpr int kBucketMin = 10;
  constexpr int kMaxGapMin = 180;
  stats.location_gap_hist.assign(kMaxGapMin / kBucketMin + 1, 0);
  stats.aoi_gap_hist.assign(kMaxGapMin / kBucketMin + 1, 0);
  stats.locations_per_sample_hist.assign(21, 0);
  stats.aois_per_sample_hist.assign(11, 0);

  double loc_gap_sum = 0, aoi_gap_sum = 0;
  int64_t loc_count = 0, aoi_count = 0;
  for (const Sample& s : dataset.samples) {
    stats.locations_per_sample_hist[std::min(
        s.num_locations(), 20)]++;
    stats.aois_per_sample_hist[std::min(s.num_aois(), 10)]++;
    for (double gap : s.time_label_min) {
      loc_gap_sum += gap;
      ++loc_count;
      const int b = std::min<int>(static_cast<int>(gap / kBucketMin),
                                  kMaxGapMin / kBucketMin);
      stats.location_gap_hist[std::max(0, b)]++;
    }
    for (double gap : s.aoi_time_label_min) {
      aoi_gap_sum += gap;
      ++aoi_count;
      const int b = std::min<int>(static_cast<int>(gap / kBucketMin),
                                  kMaxGapMin / kBucketMin);
      stats.aoi_gap_hist[std::max(0, b)]++;
    }
  }
  if (loc_count > 0) {
    stats.mean_location_arrival_gap_min = loc_gap_sum / loc_count;
    stats.mean_locations_per_sample =
        static_cast<double>(loc_count) / stats.num_samples;
  }
  if (aoi_count > 0) {
    stats.mean_aoi_arrival_gap_min = aoi_gap_sum / aoi_count;
    stats.mean_aois_per_sample =
        static_cast<double>(aoi_count) / stats.num_samples;
  }
  return stats;
}

TransferStats ComputeTransferStats(const std::vector<TripRecord>& trips) {
  // Group by (courier, day) and count consecutive-pair transfers.
  std::map<std::pair<int, int>, std::pair<int64_t, int64_t>> per_day;
  for (const TripRecord& trip : trips) {
    auto& [loc_transfers, aoi_transfers] =
        per_day[{trip.courier_id, trip.day}];
    for (size_t j = 1; j < trip.served.size(); ++j) {
      ++loc_transfers;
      if (trip.served[j].order.aoi_id != trip.served[j - 1].order.aoi_id) {
        ++aoi_transfers;
      }
    }
  }
  TransferStats stats;
  if (per_day.empty()) return stats;
  for (const auto& [key, counts] : per_day) {
    (void)key;
    stats.avg_location_transfers_per_day += counts.first;
    stats.avg_aoi_transfers_per_day += counts.second;
  }
  stats.avg_location_transfers_per_day /= per_day.size();
  stats.avg_aoi_transfers_per_day /= per_day.size();
  return stats;
}

}  // namespace m2g::synth
