#include "core/encode_plan.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace m2g::core {
namespace {

obs::Counter& PlanBuildCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("encode.plan_builds");
  return c;
}

}  // namespace

EncodePlan::EncodePlan(int max_nodes_in, int hidden_dim_in,
                       int num_heads_in) {
  static obs::Histogram& hist = obs::StageHistogram("encode.plan_build.ms");
  obs::TraceSpan span("encode.plan_build.ms", &hist);
  PlanBuildCounter().Increment();
  M2G_CHECK_GE(max_nodes_in, 1);
  M2G_CHECK_GE(hidden_dim_in, 1);
  M2G_CHECK_GE(num_heads_in, 1);
  max_nodes = max_nodes_in;
  hidden_dim = hidden_dim_in;
  num_heads = num_heads_in;
  const int n = max_nodes, d = hidden_dim, heads = num_heads;
  const int nn = n * n;
  wh = Matrix::Uninit(n, d);
  msg = Matrix::Uninit(n, d);
  nw4 = Matrix::Uninit(n, d);
  nw5 = Matrix::Uninit(n, d);
  s_src = Matrix::Uninit(n, 1);
  s_dst = Matrix::Uninit(n, 1);
  s_edge = Matrix::Uninit(nn, heads);
  s_edge_row = Matrix::Uninit(1, n);
  ae = Matrix::Uninit(d, heads);
  w3 = Matrix::Uninit(d, d);
  logits = Matrix::Uninit(1, n);
  alpha = Matrix::Uninit(1, n);
  head_rows = Matrix::Uninit(n, d);
  node_out = Matrix::Uninit(n, d);
  edge_out = Matrix::Uninit(nn, d);
  const int flag_bytes =
      (1 + kDeltaNodeSets) * n + (1 + kDeltaPairSets) * nn;
  flags = Matrix::Uninit(1, (flag_bytes + 3) / 4);
}

}  // namespace m2g::core
