// Output checks behind `failed` / error_rate, and the informational digests.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model.h"
#include "serve/feature_extractor.h"
#include "synth/world.h"

namespace perfbench {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a, chainable through `h`.
uint64_t HashBytes(const void* data, size_t size, uint64_t h = kFnvOffset);

/// Hash of every byte a client reads from one response: the node order
/// (order ids), both routes and both time vectors.
uint64_t ResponseHash(const m2g::synth::Sample& sample,
                      const m2g::core::RtpPrediction& prediction);

/// Both routes are permutations of their levels' nodes, and every
/// predicted time is finite and non-negative.
bool PredictionValid(const m2g::synth::Sample& sample,
                     const m2g::core::RtpPrediction& prediction);

/// Hash of every parameter value of `model`, in parameter order.
uint64_t WeightsHash(const m2g::core::M2g4Rtp& model);

/// The plain-path reference for one pass: per request, the ResponseHash of
/// FeatureExtractor::BuildSample + M2g4Rtp::Predict, and whether that
/// prediction is valid. Computed untimed, after the timed phase.
struct Reference {
  std::vector<uint64_t> hashes;
  std::vector<char> valid;
  /// Hash over all reference hashes: the informational output digest.
  uint64_t digest = kFnvOffset;
};
Reference BuildReference(const m2g::synth::World& world,
                         const m2g::core::M2g4Rtp& model,
                         const std::vector<m2g::serve::RtpRequest>& requests);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
