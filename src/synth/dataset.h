#ifndef M2G_SYNTH_DATASET_H_
#define M2G_SYNTH_DATASET_H_

#include <vector>

#include "synth/day_simulator.h"

namespace m2g::synth {

/// One unvisited location as seen at query time (the model-facing view of
/// Definition 1 plus the derived features of Eq. 12).
struct LocationTask {
  int order_id = 0;
  geo::LatLng pos;
  int aoi_id = 0;                  // global AOI id
  int aoi_type = 0;                // AoiType as int
  double accept_time_min = 0.0;    // x^{l,acc}
  double deadline_min = 0.0;       // x^{l,dead} (absolute)
  double dist_from_courier_m = 0;  // x^{l,dis}
};

/// An RTP request with its ground truth (Definition 4/5 labels). This is
/// the unit every model trains on and predicts for.
struct Sample {
  int courier_id = 0;
  int day = 0;
  int weekday = 0;
  int weather = 0;
  double query_time_min = 0.0;  // t
  geo::LatLng courier_pos;
  CourierProfile courier;  // profile copy (global features, Eq. 17)

  std::vector<LocationTask> locations;  // V^l; node index = position here

  // --- AOI level (V^a), derived from `locations` ---
  std::vector<int> aoi_node_ids;  // distinct global AOI ids, ascending
  std::vector<int> loc_to_aoi;    // location idx -> AOI node idx

  // --- Ground truth ---
  /// route_label[j] = location index visited j-th (Definition 4).
  std::vector<int> route_label;
  /// time_label_min[i] = arrival gap (minutes) of location i (Definition 5).
  std::vector<double> time_label_min;
  /// aoi_route_label[j] = AOI node index first entered j-th.
  std::vector<int> aoi_route_label;
  /// aoi_time_label_min[k] = arrival gap at the first location of AOI k.
  std::vector<double> aoi_time_label_min;

  int num_locations() const { return static_cast<int>(locations.size()); }
  int num_aois() const { return static_cast<int>(aoi_node_ids.size()); }
};

struct Dataset {
  std::vector<Sample> samples;
  int size() const { return static_cast<int>(samples.size()); }
};

struct DatasetSplits {
  Dataset train;
  Dataset val;
  Dataset test;
};

struct DataConfig {
  uint64_t seed = 20230707;
  WorldConfig world;
  CourierConfig couriers;
  TripConfig trips;
  TimeModel::Params time_params;
  RoutePolicy::Params policy_params;
  /// Days simulated; split 65:17:10 like the paper (by day, so the test
  /// set is strictly in the future).
  int num_days = 22;
  /// Take a mid-trip snapshot (varying n and courier position) with this
  /// probability in addition to the trip-start snapshot.
  double mid_trip_snapshot_prob = 0.45;
  /// Paper filter: keep samples with <= 20 locations and <= 10 AOIs and
  /// >= `min_locations` locations.
  int min_locations = 3;
  int max_locations = 20;
  int max_aois = 10;
};

/// An RTP request as the Figure 7 Feature Extraction Layer receives it:
/// the courier's identity and position, the wall clock, the context, and
/// the raw unvisited orders. No labels. Offline snapshots and live
/// serving requests both reach the model through this type.
struct RtpRequest {
  CourierProfile courier;
  geo::LatLng courier_pos;
  double query_time_min = 0;
  int weather = 0;
  int weekday = 0;
  std::vector<Order> pending;
};

/// The feature builder (Figure 7 "Feature Extraction"), shared by the
/// dataset and by serve::FeatureExtractor: resolves `request` into the
/// model-facing sample — node order by ascending order id, the AOI node
/// set and `loc_to_aoi`, AOI types from `world`, distances from the
/// courier. Labels come out empty and `day` 0. Builds into `*out` in
/// place, clearing its vectors but keeping their capacity; `out` must not
/// alias `request`, and `request.pending` must not be empty.
void ExtractFeatures(const World& world, const RtpRequest& request,
                     Sample* out);

/// The request `trip` poses once its first `served_prefix` orders are
/// done (0 = trip start): the realized clock and courier position at that
/// moment, and the unserved suffix of orders in service order.
RtpRequest TripRequest(const TripRecord& trip, const CourierProfile& courier,
                       int served_prefix);

/// A training sample: TripRequest, then ExtractFeatures, then the trip's
/// day and the route/time labels of the realized service order. Returns
/// false (and leaves `out` untouched) if the snapshot violates the size
/// filters.
bool SnapshotFromTrip(const World& world, const TripRecord& trip,
                      const CourierProfile& courier, int served_prefix,
                      const DataConfig& config, Sample* out);

/// Simulates the whole city for `config.num_days` and splits by day.
DatasetSplits BuildDataset(const DataConfig& config);

/// Like BuildDataset but also returns the world/couriers (for serving
/// demos and case studies).
struct BuiltWorld {
  World world;
  std::vector<CourierProfile> couriers;
  DatasetSplits splits;
};
BuiltWorld BuildWorldAndDataset(const DataConfig& config);

// ---------------------------------------------------------------------------
// Figure 4 statistics.
// ---------------------------------------------------------------------------

struct DataStats {
  int num_samples = 0;
  double mean_location_arrival_gap_min = 0;  // Fig 4(a): avg 59.64 in paper
  double mean_aoi_arrival_gap_min = 0;       // Fig 4(b): avg 61.68
  double mean_locations_per_sample = 0;      // Fig 4(c): avg 7.64
  double mean_aois_per_sample = 0;           // Fig 4(d): avg 4.08
  /// Histogram of location arrival gaps, 10-minute buckets up to 180.
  std::vector<int> location_gap_hist;
  std::vector<int> aoi_gap_hist;
  /// Histograms of per-sample counts (index = count).
  std::vector<int> locations_per_sample_hist;
  std::vector<int> aois_per_sample_hist;
};

DataStats ComputeDataStats(const Dataset& dataset);

/// The paper's §V-A transfer analysis: average number of location-to-
/// location transfers vs AOI-to-AOI transfers per courier-day (50.97 vs
/// 6.20 in the paper).
struct TransferStats {
  double avg_location_transfers_per_day = 0;
  double avg_aoi_transfers_per_day = 0;
};
TransferStats ComputeTransferStats(const std::vector<TripRecord>& trips);

/// Runs the simulation and returns all raw trips (used by the transfer
/// analysis and tests).
std::vector<TripRecord> SimulateAllTrips(const DataConfig& config,
                                         World* world_out,
                                         std::vector<CourierProfile>* couriers_out);

}  // namespace m2g::synth

#endif  // M2G_SYNTH_DATASET_H_
