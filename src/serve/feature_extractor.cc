#include "serve/feature_extractor.h"

namespace m2g::serve {

synth::Sample FeatureExtractor::BuildSample(const RtpRequest& request) const {
  synth::Sample s;
  BuildSample(request, &s);
  return s;
}

void FeatureExtractor::BuildSample(const RtpRequest& request,
                                   synth::Sample* out) const {
  synth::ExtractFeatures(*world_, request, out);
}

}  // namespace m2g::serve
