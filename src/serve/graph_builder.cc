#include "serve/graph_builder.h"

namespace m2g::serve {

graph::MultiLevelGraph GraphBuilder::Build(
    const synth::Sample& sample) const {
  return graph::BuildMultiLevelGraph(sample, config_);
}

}  // namespace m2g::serve
