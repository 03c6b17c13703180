#include "eval/latency.h"

#include <cstdio>
#include <optional>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/grad_mode.h"

namespace m2g::eval {

std::string ComplexityFormula(const std::string& method) {
  // The neural methods share AttentionRouteDecoder, whose request-scoped
  // key cache computes the O(N F^2) pointer projection once instead of
  // per step, so every decode term is N^2 F (N steps of O(N F) scoring)
  // rather than the naive N^2 F^2. M2G4RTP's encode term E F^2 (E = N^2
  // dense edges per level) keeps its complexity class on the fused
  // no-grad fast path, but the gather-free edge update drops the
  // constant from ~3 E F^2 (three gathered endpoint matmuls) to E F^2
  // plus an O(N F^2) hoist, with no (E, F) temporaries.
  if (method == "Distance-Greedy" || method == "Time-Greedy") {
    return "O(N log N)";
  }
  if (method == "OR-Tools") return "O(N^2) per 2-opt pass";
  if (method == "OSquare") return "O(t d F N)";
  if (method == "DeepRoute") return "O(N^2 F + N F^2)";
  if (method == "Graph2Route") return "O(N F^2 + E F^2 + N^2 F)";
  if (method == "FDNET") return "O(N F^2 + N^2 F)";
  if (method == "M2G4RTP") {
    return "O(N F^2 + E F^2 + N^2 F + A^2 F)";
  }
  return "?";
}

LatencyResult MeasureLatency(const RtpModel& model,
                             const std::vector<synth::Sample>& samples,
                             bool no_grad) {
  LatencyResult result;
  result.method = no_grad ? model.name() + " (no-grad)" : model.name();
  result.complexity = ComplexityFormula(model.name());
  if (samples.empty()) return result;

  std::optional<NoGradGuard> guard;
  if (no_grad) guard.emplace();
  // Per-sample timings go through the same fixed-bucket histogram the
  // serving layer exports, so offline Table V and a live scrape agree
  // on bucketing and quantile interpolation.
  obs::Histogram hist(obs::DefaultLatencyBucketsMs());
  for (const synth::Sample& s : samples) {
    // Each measured predict is a request-scoped trace ("eval" tag): the
    // offline latency study produces the same span trees / wide events a
    // live scrape would, sized by the sample's levels.
    obs::RequestTrace trace("eval");
    trace.event().num_locations = s.num_locations();
    trace.event().num_aois = s.num_aois();
    Stopwatch watch;
    core::RtpPrediction pred = model.Predict(s);
    const double ms = watch.ElapsedMillis();
    // Defeat dead-code elimination.
    if (pred.location_route.empty()) std::fprintf(stderr, "!");
    trace.event().route_length = static_cast<int>(pred.location_route.size());
    hist.Record(ms);
  }
  const obs::HistogramSnapshot snap = hist.Snapshot();
  result.mean_ms = snap.mean();
  result.p50_ms = snap.Quantile(0.50);
  result.p95_ms = snap.Quantile(0.95);
  result.p99_ms = snap.Quantile(0.99);
  return result;
}

void PrintScalabilityTable(const std::vector<LatencyResult>& rows) {
  std::printf("Table V: Scalability Analysis\n");
  std::printf("%-18s %-38s %10s %10s %10s %10s\n", "Method",
              "Inference Time Complexity", "mean (ms)", "p50 (ms)",
              "p95 (ms)", "p99 (ms)");
  for (int i = 0; i < 101; ++i) std::printf("-");
  std::printf("\n");
  for (const LatencyResult& r : rows) {
    std::printf("%-18s %-38s %10.3f %10.3f %10.3f %10.3f\n",
                r.method.c_str(), r.complexity.c_str(), r.mean_ms,
                r.p50_ms, r.p95_ms, r.p99_ms);
  }
}

}  // namespace m2g::eval
