// Seeded input generators for the benchmark workloads. Each generator is a
// pure function of its seed; the program under test only ever receives the
// inputs they return, never the seed.
#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/feature_extractor.h"
#include "synth/dataset.h"
#include "synth/world.h"

namespace perfbench {

/// One pass of a serving workload: the world the feature extractor resolves
/// AOIs against, and the requests in the order one pass sends them.
struct ServingInputs {
  m2g::synth::World world{m2g::synth::WorldConfig{}, {}};
  std::vector<m2g::serve::RtpRequest> requests;
};

/// The train/val splits of one seeded dataset.
struct TrainInputs {
  m2g::synth::Dataset train;
  m2g::synth::Dataset val;
};

/// trip_replay's trip-length mix: mix[L] trips of length L per pass. It is
/// the trip-length histogram of synth::SimulateAllTrips under the default
/// DataConfig (its fixed seed, not the workload seed), restricted to the
/// paper's filter of min_locations..max_locations (3..20) and scaled to 220
/// trips. A trip of length L replays as L requests with n = L, L-1, ..., 1.
std::vector<int> TripLengthMix();

/// Simulated trips replayed one request per pick-up. The trip lengths follow
/// TripLengthMix(), so the pass's request-size histogram is the same for
/// every seed: p50 and p99 cannot jump between size classes when the seed
/// changes, only the trips behind each size do. The seed picks the trips
/// (cut to length from longer ones where needed).
ServingInputs MakeTripReplay(uint64_t seed);

/// kStreamCouriers couriers interleaved round-robin; each climbs from
/// kStreamStartOrders to kStreamEndOrders pending orders in a fixed rhythm
/// of arrivals and pick-ups.
ServingInputs MakeOrderStream(uint64_t seed);

/// kBatchedRequests requests, a quarter each at n = 20, 30, 40 and 50, in
/// an order of sizes that is the same for every seed.
ServingInputs MakeConcurrentBatched(uint64_t seed);

/// Samples of the standard dataset config (synth::DataConfig defaults)
/// under `seed`, drawn so that both splits hold, in order, the sample sizes
/// of the default config's own splits: every seed trains the same number
/// of samples of each size in the same accumulation steps, and only their
/// content changes.
TrainInputs MakeTrainEpoch(uint64_t seed);

/// Locations of each sample, in order.
std::vector<int> SampleSizes(const m2g::synth::Dataset& dataset);

inline constexpr int kStreamCouriers = 8;
inline constexpr int kStreamStartOrders = 10;
inline constexpr int kStreamEndOrders = 50;
inline constexpr int kBatchedRequests = 64;

/// Byte image of every request field the program reads (generator test and
/// input digest).
std::string SerializeRequests(
    const std::vector<m2g::serve::RtpRequest>& requests);
/// Byte image of every sample field, labels included.
std::string SerializeDataset(const m2g::synth::Dataset& dataset);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
