#ifndef M2G_SERVE_FEATURE_EXTRACTOR_H_
#define M2G_SERVE_FEATURE_EXTRACTOR_H_

#include "synth/dataset.h"

namespace m2g::serve {

using RtpRequest = synth::RtpRequest;

/// Figure 7 "Feature Extraction Layer": resolves a live request into the
/// model-facing Sample through synth::ExtractFeatures, the same feature
/// builder the offline dataset's snapshots go through, so a served sample
/// and a training sample of the same trip state are byte-identical. The
/// returned sample has empty labels.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(const synth::World* world) : world_(world) {}

  synth::Sample BuildSample(const RtpRequest& request) const;

  /// In-place variant for the serving hot path: builds straight into
  /// `*out` (clearing any previous contents), so the sample's vectors are
  /// constructed in their final home — the response — and never copied. `out` must not alias `request`.
  void BuildSample(const RtpRequest& request, synth::Sample* out) const;

 private:
  const synth::World* world_;
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_FEATURE_EXTRACTOR_H_
