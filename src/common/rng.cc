#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace m2g {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Expand the seed through SplitMix64 as recommended by the xoshiro authors.
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int Rng::UniformInt(int lo, int hi) {
  M2G_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  return lo + static_cast<int>(NextUint64() % range);
}

double Rng::NextGaussian() {
  // Box-Muller; guard against log(0).
  double u1 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

int Rng::SampleIndex(const std::vector<double>& weights) {
  M2G_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    M2G_CHECK_GE(w, 0.0);
    total += w;
  }
  M2G_CHECK_GT(total, 0.0);
  double r = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace m2g
