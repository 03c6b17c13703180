#ifndef M2G_COMMON_RNG_H_
#define M2G_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace m2g {

/// Deterministic, seedable PRNG (xoshiro256**). Every source of randomness
/// in the library flows through an explicitly constructed Rng so that a
/// fixed seed reproduces datasets, training runs and printed tables exactly.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit integer.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double NextGaussian();

  /// Gaussian with the given mean / stddev.
  double Gaussian(double mean, double stddev);

  /// Bernoulli draw.
  bool Bernoulli(double p);

  /// Index sampled proportionally to `weights` (non-negative, not all zero).
  int SampleIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
      int j = UniformInt(0, i);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derive an independent child stream (e.g., per-courier, per-day).
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace m2g

#endif  // M2G_COMMON_RNG_H_
