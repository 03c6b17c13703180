#include "tensor/tensor.h"

#include <atomic>
#include <unordered_map>

#include "tensor/grad_buffer.h"

namespace m2g {

namespace internal {
namespace {

/// Parameter transposes computed during one Tensor::Backward() call
/// (see TransposedValue). Installed on the calling thread for the call's
/// duration; its pooled matrices are released before Backward returns,
/// so they never outlive the caller's ArenaGuard.
class BackwardScope {
 public:
  BackwardScope();
  ~BackwardScope();

  BackwardScope(const BackwardScope&) = delete;
  BackwardScope& operator=(const BackwardScope&) = delete;

  const Matrix& TransposeOf(const TensorNode* leaf) {
    auto it = transposes_.find(leaf);
    if (it == transposes_.end()) {
      it = transposes_.emplace(leaf, TransposeRaw(leaf->value)).first;
    }
    return it->second;
  }

 private:
  BackwardScope* prev_;
  std::unordered_map<const TensorNode*, Matrix> transposes_;
};

thread_local BackwardScope* t_backward_scope = nullptr;

BackwardScope::BackwardScope() : prev_(t_backward_scope) {
  t_backward_scope = this;
}

BackwardScope::~BackwardScope() { t_backward_scope = prev_; }

/// Source of Backward()'s visit stamps: unique across calls and threads,
/// so a node stamped by an earlier call never reads as visited.
std::atomic<uint64_t> g_backward_stamp{0};

/// Nodes the topological sort visits: op nodes with a backward. Leaves
/// (and op nodes over constants only, whose subgraphs hold nothing that
/// needs a gradient) are skipped without being touched.
bool HasBackward(const TensorNode* node) {
  return node->requires_grad && !node->parents.empty();
}

}  // namespace

std::shared_ptr<TensorNode> NewNode(Matrix value) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  return node;
}

const Matrix& TransposedValue(const TensorNode* node, Matrix* scratch) {
  if (t_backward_scope != nullptr && node->IsParameterLeaf()) {
    return t_backward_scope->TransposeOf(node);
  }
  *scratch = TransposeRaw(node->value);
  return *scratch;
}

Matrix& TensorNode::EnsureGrad() {
  if (IsParameterLeaf()) {
    if (GradBuffer* buffer = ActiveGradBuffer()) return buffer->GradFor(this);
  }
  if (!grad.SameShape(value)) grad = Matrix(value.rows(), value.cols());
  return grad;
}

}  // namespace internal

Tensor Tensor::Constant(Matrix value) {
  return FromNode(internal::NewNode(std::move(value)));
}

Tensor Tensor::Parameter(Matrix value) {
  auto node = internal::NewNode(std::move(value));
  node->requires_grad = true;
  return FromNode(std::move(node));
}

Tensor Tensor::Scalar(float value) {
  Matrix m(1, 1);
  m[0] = value;
  return Constant(std::move(m));
}

Tensor Tensor::FromNode(std::shared_ptr<internal::TensorNode> node) {
  Tensor t;
  t.node_ = std::move(node);
  return t;
}

float Tensor::item() const {
  M2G_CHECK_MSG(defined(),
                "item() called on a null (default-constructed) Tensor");
  M2G_CHECK_EQ(node_->value.size(), 1u);
  return node_->value[0];
}

void Tensor::ZeroGrad() const {
  M2G_CHECK(defined());
  if (node_->grad.SameShape(node_->value)) node_->grad.SetZero();
}

void Tensor::Backward() const {
  M2G_CHECK(defined());
  M2G_CHECK_MSG(node_->value.size() == 1u,
                "Backward() must start from a scalar");

  // Iterative DFS topological sort over the parent DAG, visiting only
  // nodes with a backward. Skipped nodes lead to no node that has one,
  // so the op nodes come out in the same order as a sort over every
  // node would give.
  const uint64_t stamp =
      internal::g_backward_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<internal::TensorNode*> topo;
  struct Frame {
    internal::TensorNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (internal::HasBackward(node_.get())) {
    node_->visit_stamp = stamp;
    stack.push_back({node_.get(), 0});
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      internal::TensorNode* p = f.node->parents[f.next_parent++].get();
      if (internal::HasBackward(p) && p->visit_stamp != stamp) {
        p->visit_stamp = stamp;
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  internal::BackwardScope scope;
  node_->EnsureGrad();
  node_->grad[0] += 1.0f;
  // topo is parents-before-children; run it children-first.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorNode* n = *it;
    if (!n->grad.SameShape(n->value)) continue;  // no grad ever reached it
    n->backward_fn(n);
  }
}

}  // namespace m2g
