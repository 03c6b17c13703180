#ifndef M2G_TENSOR_TENSOR_H_
#define M2G_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace m2g {

namespace internal {

/// One node in a dynamically built reverse-mode autograd graph. Nodes own
/// shared pointers to their parents (a DAG, children -> parents), so when
/// the loss tensor goes out of scope the per-sample graph is freed while
/// long-lived parameter leaves survive inside their modules.
struct TensorNode {
  Matrix value;
  Matrix grad;  // lazily allocated, same shape as `value`
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorNode>> parents;
  /// Accumulates this node's grad into its parents' grads.
  std::function<void(TensorNode*)> backward_fn;
  /// Tensor::Backward()'s visited mark: the stamp of the last call whose
  /// topological sort reached this node. Only op nodes that require
  /// grad are ever stamped, so leaves shared across threads (parameters)
  /// are never written.
  uint64_t visit_stamp = 0;

  /// A trainable leaf shared across concurrently built graphs (as opposed
  /// to a thread-private op output).
  bool IsParameterLeaf() const { return requires_grad && parents.empty(); }

  /// Gradient accumulation target for this node. Normally the lazily
  /// allocated `grad` field; for parameter leaves on a thread with an
  /// active GradBufferScope (data-parallel training), a per-thread buffer
  /// instead, so concurrent Backward() calls never race on shared leaves.
  Matrix& EnsureGrad();
};

}  // namespace internal

/// Value handle for the autograd engine. Copying a Tensor copies the handle,
/// not the data. A default-constructed Tensor is null (`defined() == false`).
class Tensor {
 public:
  Tensor() = default;

  /// Wraps a constant (no gradient flows into it).
  static Tensor Constant(Matrix value);
  /// Wraps a trainable leaf; its grad accumulates across Backward calls
  /// until the optimizer zeroes it.
  static Tensor Parameter(Matrix value);
  /// Scalar constant shorthand.
  static Tensor Scalar(float value);

  bool defined() const { return node_ != nullptr; }
  int rows() const {
    CheckDefined();
    return node_->value.rows();
  }
  int cols() const {
    CheckDefined();
    return node_->value.cols();
  }
  const Matrix& value() const {
    CheckDefined();
    return node_->value;
  }
  Matrix& mutable_value() {
    CheckDefined();
    return node_->value;
  }
  const Matrix& grad() const {
    CheckDefined();
    return node_->grad;
  }
  bool requires_grad() const {
    CheckDefined();
    return node_->requires_grad;
  }
  /// Scalar read; requires shape (1,1).
  float item() const;

  /// Runs reverse-mode autodiff from this scalar (1x1) tensor. Gradients
  /// accumulate (+=) into every reachable leaf with requires_grad. Each
  /// node's backward runs in the reverse of the DFS post-order over
  /// parents (in parent order), so the float summation order of every
  /// gradient is a function of the graph's shape alone.
  void Backward() const;

  /// Drops / (re)zeroes the gradient buffer of this leaf.
  void ZeroGrad() const;

  /// Internal: used by op implementations.
  const std::shared_ptr<internal::TensorNode>& node() const { return node_; }
  static Tensor FromNode(std::shared_ptr<internal::TensorNode> node);

 private:
  void CheckDefined() const {
    M2G_CHECK_MSG(node_ != nullptr,
                  "accessor called on a null (default-constructed) Tensor");
  }

  std::shared_ptr<internal::TensorNode> node_;
};

namespace internal {
/// Allocates a node holding `value`. Op implementations use this.
std::shared_ptr<TensorNode> NewNode(Matrix value);

/// Finalizes an op node: wires parents, requires_grad and the backward
/// closure. Under NoGradGuard (GradMode disabled on this thread) the
/// wiring is skipped entirely: the op returns a plain constant holding
/// the already computed forward value, so inference is pure matrix math.
Tensor MakeOp(std::shared_ptr<TensorNode> out,
              std::vector<std::shared_ptr<TensorNode>> parents,
              std::function<void(TensorNode*)> backward);

/// TransposeRaw(node->value) for backward kernels. Inside
/// Tensor::Backward() a parameter leaf's transpose is computed once per
/// call and cached (a weight used at every LSTM step is transposed once
/// per sample, not at every use); any other node is
/// transposed into `scratch`. The cache is freed before Backward()
/// returns and is private to the calling thread. The returned matrix is
/// bit-identical to TransposeRaw(node->value) either way.
const Matrix& TransposedValue(const TensorNode* node, Matrix* scratch);
}  // namespace internal

}  // namespace m2g

#endif  // M2G_TENSOR_TENSOR_H_
