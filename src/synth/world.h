#ifndef M2G_SYNTH_WORLD_H_
#define M2G_SYNTH_WORLD_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/latlng.h"

namespace m2g::synth {

/// AOI categories (Definition 2: community, office building, hospital, ...).
enum class AoiType {
  kResidential = 0,
  kOffice = 1,
  kMall = 2,
  kSchool = 3,
  kHospital = 4,
  kIndustrial = 5,
};
inline constexpr int kNumAoiTypes = 6;

/// Area Of Interest (Definition 2): a typed regional entity abstracted to
/// its central coordinate plus a radius within which its locations scatter.
struct Aoi {
  int id = 0;
  AoiType type = AoiType::kResidential;
  geo::LatLng center;
  double radius_m = 150.0;
  int district = 0;  // which city district the AOI belongs to
  /// Latent access overhead (gates, parking, lobbies) added to every
  /// service at this AOI, in minutes. Stable across days, *not* exposed
  /// as a raw feature anywhere: models can only capture it through the
  /// AOI-identity embedding — the location-specific time pattern the
  /// paper's representation-sharing argument rests on.
  double access_overhead_min = 0.0;
};

struct WorldConfig {
  /// City anchor; defaults to Hangzhou like the paper's dataset.
  geo::LatLng city_center{30.25, 120.17};
  int num_districts = 8;
  double district_spread_m = 6000.0;  // districts scatter around the center
  double aoi_spread_m = 1200.0;       // AOIs scatter around their district
  int num_aois = 300;
  double min_aoi_radius_m = 60.0;
  double max_aoi_radius_m = 260.0;
};

/// The static map: districts of AOIs around a city center.
class World {
 public:
  World(WorldConfig config, std::vector<Aoi> aois)
      : config_(config), aois_(std::move(aois)) {}

  const WorldConfig& config() const { return config_; }
  const std::vector<Aoi>& aois() const { return aois_; }
  const Aoi& aoi(int id) const;
  int num_aois() const { return static_cast<int>(aois_.size()); }

  /// AOI ids belonging to the given district.
  std::vector<int> AoisInDistrict(int district) const;

  /// Uniform random point inside the AOI's disc.
  geo::LatLng SamplePointInAoi(int aoi_id, Rng* rng) const;

 private:
  WorldConfig config_;
  std::vector<Aoi> aois_;
};

/// Lays out districts and AOIs deterministically from `rng`.
World GenerateWorld(const WorldConfig& config, Rng* rng);

}  // namespace m2g::synth

#endif  // M2G_SYNTH_WORLD_H_
