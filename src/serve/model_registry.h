#ifndef M2G_SERVE_MODEL_REGISTRY_H_
#define M2G_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/model.h"

namespace m2g::serve {

/// One immutable published model: the weights plus the version that
/// produced them. Snapshots are handed out by shared_ptr, so a snapshot
/// pinned for an in-flight request stays alive — weights readable,
/// version tag stable — until the last request that pinned it finishes,
/// no matter how many swaps happen meanwhile.
struct ModelSnapshot {
  std::shared_ptr<const core::M2g4Rtp> model;
  int64_t version = 0;
};

/// Double-buffered model registry: the serving side of weights hot-swap.
/// Readers (`Current()`) copy the snapshot pointer once per micro-batch,
/// so every request of a batch is served — and its response
/// version-tagged — by the same weights. Writers (`Publish*`) build the
/// replacement off the serving threads, then swap the pointer; the
/// displaced snapshot drains by refcount as the last in-flight requests
/// that pinned it retire. Readers and the swap share one mutex held only
/// for a pointer copy or swap, so no serving thread waits on a model
/// load, and no request is ever dropped or served by a half-loaded model.
///
/// Observability: `model.version` gauge tracks the live version;
/// `serve.swaps` counts completed publishes.
class ModelRegistry {
 public:
  /// Seeds the registry; the initial model is `initial_version`
  /// (default 1; version 0 is reserved for "no registry").
  explicit ModelRegistry(std::shared_ptr<const core::M2g4Rtp> initial,
                         int64_t initial_version = 1);

  /// The current snapshot (never null).
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Publishes `model` as the new current snapshot and returns its
  /// version (previous + 1). Publishers are serialized with each other;
  /// readers never block.
  int64_t Publish(std::shared_ptr<const core::M2g4Rtp> model);

  /// Off-thread load-and-publish: constructs a model from `config`,
  /// loads the weights file at `path`, and publishes on success. On load
  /// failure the registry is unchanged and the error is returned — a bad
  /// weights file can never become the serving model.
  Result<int64_t> PublishFromFile(const core::ModelConfig& config,
                                  const std::string& path);

  int64_t version() const { return Current()->version; }
  uint64_t swap_count() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  // Guards `snapshot_` for one pointer copy or swap. Not
  // std::atomic<std::shared_ptr>: libstdc++ 12's load() releases its
  // internal lock with a relaxed store, so a load followed by a
  // Publish is a data race under the C++ memory model (TSan reports it).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::mutex publish_mu_;
  std::atomic<uint64_t> swaps_{0};
};

/// Where a service reads its model: a registry's current snapshot, or a
/// fixed model served as a non-owning version-0 snapshot, so both kinds
/// of service pin and run a request the same way.
class ModelSource {
 public:
  /// `registry` must be non-null and outlive the source.
  explicit ModelSource(const ModelRegistry* registry);
  /// `model` must be non-null and outlive every snapshot handed out.
  explicit ModelSource(const core::M2g4Rtp* model);

  /// The snapshot to serve with (never null).
  std::shared_ptr<const ModelSnapshot> Current() const {
    return registry_ != nullptr ? registry_->Current() : fixed_;
  }

 private:
  const ModelRegistry* registry_ = nullptr;
  std::shared_ptr<const ModelSnapshot> fixed_;
};

}  // namespace m2g::serve

#endif  // M2G_SERVE_MODEL_REGISTRY_H_
