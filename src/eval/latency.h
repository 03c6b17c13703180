#ifndef M2G_EVAL_LATENCY_H_
#define M2G_EVAL_LATENCY_H_

#include "eval/rtp_model.h"

namespace m2g::eval {

/// Table V row: measured single-request inference latency plus the
/// analytical complexity from the paper. Quantiles are read from the
/// shared obs::Histogram latency buckets (interpolated, not exact order
/// statistics), so offline rows and the live serving exports agree.
struct LatencyResult {
  std::string method;
  std::string complexity;  // e.g. "O(NF^2 + EF^2 + N^2F^2 + A^2F^2)"
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// The paper's Table V complexity column for a method name ("?" if the
/// method is not in the table).
std::string ComplexityFormula(const std::string& method);

/// Measures per-sample Predict latency of an already-fitted model over
/// `samples` (each sample timed individually). When `no_grad` is true the
/// passes run under NoGradGuard (no autograd graph is built) and the
/// method name gets a " (no-grad)" suffix.
LatencyResult MeasureLatency(const RtpModel& model,
                             const std::vector<synth::Sample>& samples,
                             bool no_grad = false);

void PrintScalabilityTable(const std::vector<LatencyResult>& rows);

}  // namespace m2g::eval

#endif  // M2G_EVAL_LATENCY_H_
