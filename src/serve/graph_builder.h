#ifndef M2G_SERVE_GRAPH_BUILDER_H_
#define M2G_SERVE_GRAPH_BUILDER_H_

#include "graph/multi_level_graph.h"

namespace m2g::serve {

/// Figure 7 "Graph Builder": multi-level graph construction over the
/// extracted features. Thin facade over the graph module so the online
/// and offline paths provably share one code path.
class GraphBuilder {
 public:
  explicit GraphBuilder(const graph::GraphConfig& config)
      : config_(config) {}
  GraphBuilder() : GraphBuilder(graph::GraphConfig{}) {}

  graph::MultiLevelGraph Build(const synth::Sample& sample) const;

  const graph::GraphConfig& config() const { return config_; }

 private:
  graph::GraphConfig config_;
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_GRAPH_BUILDER_H_
