#include "checks.h"

#include <algorithm>
#include <cmath>

#include "tensor/grad_mode.h"
#include "tensor/pool.h"

namespace perfbench {
namespace {

bool IsPermutation(const std::vector<int>& route, int n) {
  if (static_cast<int>(route.size()) != n) return false;
  std::vector<char> seen(n, 0);
  for (int v : route) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

bool TimesValid(const std::vector<double>& times, int n) {
  return static_cast<int>(times.size()) == n &&
         std::all_of(times.begin(), times.end(),
                     [](double t) { return std::isfinite(t) && t >= 0; });
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v, uint64_t h) {
  const size_t size = v.size();
  h = HashBytes(&size, sizeof(size), h);
  return HashBytes(v.data(), v.size() * sizeof(T), h);
}

}  // namespace

uint64_t HashBytes(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t ResponseHash(const m2g::synth::Sample& sample,
                      const m2g::core::RtpPrediction& prediction) {
  std::vector<int> order_ids;
  order_ids.reserve(sample.locations.size());
  for (const m2g::synth::LocationTask& t : sample.locations) {
    order_ids.push_back(t.order_id);
  }
  uint64_t h = HashVector(order_ids, kFnvOffset);
  h = HashVector(prediction.location_route, h);
  h = HashVector(prediction.location_times_min, h);
  h = HashVector(prediction.aoi_route, h);
  return HashVector(prediction.aoi_times_min, h);
}

bool PredictionValid(const m2g::synth::Sample& sample,
                     const m2g::core::RtpPrediction& prediction) {
  return IsPermutation(prediction.location_route, sample.num_locations()) &&
         IsPermutation(prediction.aoi_route, sample.num_aois()) &&
         TimesValid(prediction.location_times_min, sample.num_locations()) &&
         TimesValid(prediction.aoi_times_min, sample.num_aois());
}

uint64_t WeightsHash(const m2g::core::M2g4Rtp& model) {
  uint64_t h = kFnvOffset;
  for (const m2g::Tensor& p : model.Parameters()) {
    const m2g::Matrix& m = p.value();
    h = HashBytes(m.data(), m.size() * sizeof(float), h);
  }
  return h;
}

Reference BuildReference(const m2g::synth::World& world,
                         const m2g::core::M2g4Rtp& model,
                         const std::vector<m2g::serve::RtpRequest>& requests) {
  m2g::NoGradGuard no_grad;
  const m2g::serve::FeatureExtractor extractor(&world);
  Reference ref;
  ref.hashes.reserve(requests.size());
  ref.valid.reserve(requests.size());
  for (const m2g::serve::RtpRequest& req : requests) {
    m2g::ArenaGuard arena;
    const m2g::synth::Sample sample = extractor.BuildSample(req);
    const m2g::core::RtpPrediction pred = model.Predict(sample);
    ref.hashes.push_back(ResponseHash(sample, pred));
    ref.valid.push_back(PredictionValid(sample, pred) ? 1 : 0);
    ref.digest = HashBytes(&ref.hashes.back(), sizeof(uint64_t), ref.digest);
  }
  return ref;
}

}  // namespace perfbench
