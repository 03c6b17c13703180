#include "synth/world.h"

#include <cmath>

#include "common/check.h"

namespace m2g::synth {

const Aoi& World::aoi(int id) const {
  M2G_CHECK(id >= 0 && id < num_aois());
  return aois_[id];
}

std::vector<int> World::AoisInDistrict(int district) const {
  std::vector<int> out;
  for (const Aoi& a : aois_) {
    if (a.district == district) out.push_back(a.id);
  }
  return out;
}

geo::LatLng World::SamplePointInAoi(int aoi_id, Rng* rng) const {
  const Aoi& a = aoi(aoi_id);
  // Uniform over the disc: r = R * sqrt(u).
  const double r = a.radius_m * std::sqrt(rng->NextDouble());
  const double theta = rng->Uniform(0.0, 2.0 * M_PI);
  return geo::OffsetMeters(a.center, r * std::cos(theta),
                           r * std::sin(theta));
}

World GenerateWorld(const WorldConfig& config, Rng* rng) {
  M2G_CHECK_GT(config.num_districts, 0);
  M2G_CHECK_GT(config.num_aois, 0);
  // District centers around the city center.
  std::vector<geo::LatLng> districts;
  districts.reserve(config.num_districts);
  for (int d = 0; d < config.num_districts; ++d) {
    districts.push_back(geo::OffsetMeters(
        config.city_center,
        rng->Gaussian(0.0, config.district_spread_m),
        rng->Gaussian(0.0, config.district_spread_m)));
  }
  // Residential areas dominate in a pick-up scenario; weight the types.
  const std::vector<double> type_weights = {0.45, 0.22, 0.10,
                                            0.08, 0.05, 0.10};
  std::vector<Aoi> aois;
  aois.reserve(config.num_aois);
  for (int i = 0; i < config.num_aois; ++i) {
    Aoi a;
    a.id = i;
    a.district = rng->UniformInt(0, config.num_districts - 1);
    a.type = static_cast<AoiType>(rng->SampleIndex(type_weights));
    a.center = geo::OffsetMeters(
        districts[a.district], rng->Gaussian(0.0, config.aoi_spread_m),
        rng->Gaussian(0.0, config.aoi_spread_m));
    a.radius_m =
        rng->Uniform(config.min_aoi_radius_m, config.max_aoi_radius_m);
    a.access_overhead_min = rng->Uniform(0.0, 3.0);
    aois.push_back(a);
  }
  return World(config, std::move(aois));
}

}  // namespace m2g::synth
