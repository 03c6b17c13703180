// Exhaustive check of the tanh kernel (tensor/simd.h TanhRow) over all
// 2^32 float bit patterns:
//   * every SIMD tier this CPU supports against the scalar tier (the
//     fdlibm port), byte for byte;
//   * the scalar port against the host libm's tanhf, reported only: the
//     port, not whatever libm the host has, is the reference, so a libm
//     difference says the host's tanhf is not the fdlibm code.
// Exits 1 if any tier differs from the port. The dispatch tier is
// process-wide, so each chunk of inputs runs one tier at a time, split
// across up to 4 threads; about a minute on a 4-vCPU AVX2 host.
//
//   ./build/tools/tanh_sweep

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "tensor/simd.h"

namespace {

using m2g::simd::Tier;

/// Counts the inputs where `got` and `want` differ in any bit; prints
/// the first few.
uint64_t CountDiffering(const float* x, const float* got, const float* want,
                        int n, const char* what) {
  uint64_t differ = 0;
  for (int i = 0; i < n; ++i) {
    const uint32_t g = std::bit_cast<uint32_t>(got[i]);
    const uint32_t w = std::bit_cast<uint32_t>(want[i]);
    if (g == w) continue;
    if (differ < 3) {
      std::printf("  %s: x=0x%08x got 0x%08x, port 0x%08x\n", what,
                  std::bit_cast<uint32_t>(x[i]), g, w);
    }
    ++differ;
  }
  return differ;
}

/// Runs fn(begin, end) on `threads` contiguous slices of [0, n).
template <typename Fn>
void ParallelSlices(int n, int threads, Fn&& fn) {
  std::vector<std::thread> pool;
  const int per = (n + threads - 1) / threads;
  for (int w = 0; w < threads; ++w) {
    const int begin = std::min(n, w * per);
    const int end = std::min(n, begin + per);
    pool.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

int main() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kSse2, Tier::kAvx2}) {
    if (t <= m2g::simd::DetectedTier()) tiers.push_back(t);
  }
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  constexpr uint64_t kTotal = uint64_t{1} << 32;
  constexpr int kChunk = 1 << 20;
  std::vector<float> x(kChunk), want(kChunk), got(kChunk);
  // One counter per thread slice and per comparison, summed at the end.
  std::vector<uint64_t> libm_differ(threads, 0);
  std::vector<std::vector<uint64_t>> tier_differ(
      tiers.size(), std::vector<uint64_t>(threads, 0));
  const int per = (kChunk + threads - 1) / threads;
  for (uint64_t base = 0; base < kTotal; base += kChunk) {
    m2g::simd::SetTier(Tier::kScalar);
    ParallelSlices(kChunk, threads, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        x[i] = std::bit_cast<float>(static_cast<uint32_t>(base + i));
      }
      m2g::simd::TanhRow(x.data() + begin, want.data() + begin, end - begin);
      for (int i = begin; i < end; ++i) got[i] = std::tanh(x[i]);
      libm_differ[begin / per] +=
          CountDiffering(x.data() + begin, got.data() + begin,
                         want.data() + begin, end - begin, "host tanhf");
    });
    for (size_t t = 0; t < tiers.size(); ++t) {
      m2g::simd::SetTier(tiers[t]);
      ParallelSlices(kChunk, threads, [&](int begin, int end) {
        m2g::simd::TanhRow(x.data() + begin, got.data() + begin,
                           end - begin);
        tier_differ[t][begin / per] += CountDiffering(
            x.data() + begin, got.data() + begin, want.data() + begin,
            end - begin, m2g::simd::TierName(tiers[t]));
      });
    }
  }
  auto sum = [](const std::vector<uint64_t>& v) {
    uint64_t s = 0;
    for (uint64_t c : v) s += c;
    return static_cast<unsigned long long>(s);
  };
  bool ok = true;
  std::printf("tanh_sweep: %llu inputs, detected tier %s\n",
              static_cast<unsigned long long>(kTotal),
              m2g::simd::TierName(m2g::simd::DetectedTier()));
  for (size_t t = 0; t < tiers.size(); ++t) {
    std::printf("  %s vs scalar port: %llu differ\n",
                m2g::simd::TierName(tiers[t]), sum(tier_differ[t]));
    ok = ok && sum(tier_differ[t]) == 0;
  }
  std::printf("  host tanhf vs scalar port: %llu differ (reported only)\n",
              sum(libm_differ));
  return ok ? 0 : 1;
}
