#ifndef M2G_NN_SERIALIZE_H_
#define M2G_NN_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "nn/module.h"

namespace m2g::nn {

/// Writes every named parameter of `module` to `path` in a simple binary
/// format (magic + per-tensor name/shape/data records).
Status SaveModule(const Module& module, const std::string& path);

/// Loads parameters into `module` by name. Every parameter in the module
/// must be present in the file with a matching shape; extra records in the
/// file are an error too, so a round-trip is exact. Headers claiming more
/// data than the file holds and non-finite values are rejected, and a
/// failed load leaves the module unchanged.
Status LoadModule(Module* module, const std::string& path);

}  // namespace m2g::nn

#endif  // M2G_NN_SERIALIZE_H_
