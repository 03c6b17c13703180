#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>

#include "common/string_util.h"

namespace m2g::nn {
namespace {

constexpr uint32_t kMagic = 0x4D324757;  // "M2GW"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadBytes(std::FILE* f, void* data, size_t n) {
  return std::fread(data, 1, n, f) == n;
}

}  // namespace

Status SaveModule(const Module& module, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  auto named = module.NamedParameters();
  uint32_t count = static_cast<uint32_t>(named.size());
  if (!WriteBytes(f.get(), &kMagic, sizeof(kMagic)) ||
      !WriteBytes(f.get(), &count, sizeof(count))) {
    return Status::IoError("short write: " + path);
  }
  for (const auto& [name, p] : named) {
    uint32_t name_len = static_cast<uint32_t>(name.size());
    int32_t rows = p.value().rows();
    int32_t cols = p.value().cols();
    if (!WriteBytes(f.get(), &name_len, sizeof(name_len)) ||
        !WriteBytes(f.get(), name.data(), name.size()) ||
        !WriteBytes(f.get(), &rows, sizeof(rows)) ||
        !WriteBytes(f.get(), &cols, sizeof(cols)) ||
        !WriteBytes(f.get(), p.value().data(),
                    sizeof(float) * static_cast<size_t>(p.value().size()))) {
      return Status::IoError("short write: " + path);
    }
  }
  return Status::Ok();
}

Status LoadModule(Module* module, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  // The file size bounds every record, so a forged header cannot make
  // the loader allocate more than the file holds.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const int64_t file_size = std::ftell(f.get());
  std::rewind(f.get());
  uint32_t magic = 0, count = 0;
  if (!ReadBytes(f.get(), &magic, sizeof(magic)) || magic != kMagic) {
    return Status::InvalidArgument("not an m2g weights file: " + path);
  }
  if (!ReadBytes(f.get(), &count, sizeof(count))) {
    return Status::IoError("truncated file: " + path);
  }
  std::map<std::string, Matrix> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadBytes(f.get(), &name_len, sizeof(name_len)) ||
        name_len > 4096) {
      return Status::IoError("corrupt record in: " + path);
    }
    std::string name(name_len, '\0');
    int32_t rows = 0, cols = 0;
    if (!ReadBytes(f.get(), name.data(), name_len) ||
        !ReadBytes(f.get(), &rows, sizeof(rows)) ||
        !ReadBytes(f.get(), &cols, sizeof(cols)) || rows < 0 || cols < 0) {
      return Status::IoError("corrupt record in: " + path);
    }
    // rows * cols < 2^62: the product cannot overflow 64 bits.
    const int64_t floats_left =
        (file_size - std::ftell(f.get())) / int64_t{sizeof(float)};
    if (int64_t{rows} * cols > floats_left) {
      return Status::IoError("truncated tensor data in: " + path);
    }
    Matrix m(rows, cols);
    if (!ReadBytes(f.get(), m.data(),
                   sizeof(float) * static_cast<size_t>(m.size()))) {
      return Status::IoError("truncated tensor data in: " + path);
    }
    if (!std::all_of(m.data(), m.data() + m.size(),
                     [](float v) { return std::isfinite(v); })) {
      return Status::InvalidArgument("non-finite value in " + name + ": " +
                                     path);
    }
    loaded.emplace(std::move(name), std::move(m));
  }

  // Validate every record before assigning any, so a failed load leaves
  // the module unchanged.
  auto named = module->NamedParameters();
  if (named.size() != loaded.size()) {
    return Status::InvalidArgument(StrFormat(
        "parameter count mismatch: module has %zu, file has %zu",
        named.size(), loaded.size()));
  }
  for (auto& [name, p] : named) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::InvalidArgument("missing parameter in file: " + name);
    }
    if (!it->second.SameShape(p.value())) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for %s: module (%d,%d), file (%d,%d)",
          name.c_str(), p.value().rows(), p.value().cols(),
          it->second.rows(), it->second.cols()));
    }
  }
  for (auto& [name, p] : named) p.node()->value = std::move(loaded[name]);
  return Status::Ok();
}

}  // namespace m2g::nn
