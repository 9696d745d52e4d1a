// Common interface of the two reproduced architectures (CapsNet [25] and
// DeepCaps [24]). The ReD-CaNe methodology (src/core) drives models only
// through this interface, so it is architecture-agnostic exactly as the
// paper's flow is.
//
// A model writes its op sequence once, as stages (run_stage). CapsModel
// runs them in the one loop behind forward(), infer() and forward_range(),
// so full, segmented and training forwards cannot drift apart.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "capsnet/inject.hpp"
#include "nn/layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace redcane::capsnet {

/// Stage-boundary activations of a stage-segmented forward pass.
/// `at[k]` holds the tensors entering stage k (`at[0]` = {input batch});
/// `at[num_stages()]` holds the final class capsules. A recording run over
/// a clean batch turns this into a reusable prefix cache: noise injected
/// at a site of stage k cannot change `at[0..k]`, so a sweep replays only
/// stages [k, num_stages()) per noisy point.
struct StageState {
  std::vector<std::vector<Tensor>> at;
};

class CapsModel {
 public:
  virtual ~CapsModel() = default;

  /// Runs inference (train=false) or a cached training forward pass over
  /// every stage. Returns class capsules [N, num_classes, dim]; their L2
  /// lengths are the classification scores. `x` is read in place and no
  /// stage boundary is kept. `hook` may be null.
  Tensor forward(const Tensor& x, bool train, PerturbationHook* hook) {
    return run(0, num_stages(), std::span<const Tensor>(&x, 1), train, hook, nullptr);
  }

  /// Shared-weight inference entry: forward(x, train=false, hook). Safe to
  /// call concurrently from several threads on one model instance — the
  /// sweep engine and the serving worker pool both rely on eval forwards
  /// writing no model state (pinned by capsnet::audit_const_forward) — as
  /// long as no thread trains or mutates params meanwhile.
  [[nodiscard]] Tensor infer(const Tensor& x, PerturbationHook* hook = nullptr) {
    return forward(x, /*train=*/false, hook);
  }

  /// Number of stages of the segmented forward. Stage boundaries sit
  /// immediately after hook-site emits, so a perturbation at a site
  /// affects only the site's own stage and later ones.
  [[nodiscard]] virtual int num_stages() const = 0;

  /// Runs stages [first, last) of an inference-only forward pass
  /// (train=false semantics; safe to call concurrently from several
  /// threads on one model). `state.at` must be sized num_stages() + 1 with
  /// `at[first]` populated (`at[0]` = {x}); when `record` is true every
  /// executed stage k also stores its boundary tensors into `at[k + 1]`.
  /// Returns the class capsules when last == num_stages(), otherwise an
  /// empty tensor. forward() runs the same stage loop, so running
  /// [0, num_stages()) is bit-identical to forward(x, false, hook).
  Tensor forward_range(int first, int last, StageState& state, PerturbationHook* hook,
                       bool record) {
    return run(first, last, state.at[static_cast<std::size_t>(first)], /*train=*/false, hook,
               record ? &state : nullptr);
  }

  /// Backward from dL/d(class capsules); must follow forward(train=true).
  virtual Tensor backward(const Tensor& grad_v) = 0;

  virtual std::vector<nn::Param*> params() = 0;

  /// Injectable layer names, in network order (the paper's Fig. 10 axis).
  [[nodiscard]] virtual std::vector<std::string> layer_names() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Expected input shape [H, W, C] (without batch).
  [[nodiscard]] virtual Shape input_shape() const = 0;

  [[nodiscard]] virtual std::int64_t num_classes() const = 0;

  /// Classification scores: capsule lengths [N, num_classes].
  [[nodiscard]] static Tensor class_lengths(const Tensor& v) {
    return ops::l2_norm_last_axis(v);
  }

 protected:
  /// Stage k of the forward: maps the tensors entering the stage to the
  /// tensors leaving it, emitting the stage's hook sites. Each model's op
  /// sequence is written only here. Stages never mutate `in` (it may be a
  /// shared prefix-cache checkpoint or the caller's input) and write model
  /// state only when `train` is true.
  virtual std::vector<Tensor> run_stage(int k, std::span<const Tensor> in, bool train,
                                        PerturbationHook* hook) = 0;

  /// A one-tensor stage boundary, built by move.
  [[nodiscard]] static std::vector<Tensor> boundary(Tensor t) {
    std::vector<Tensor> out;
    out.push_back(std::move(t));
    return out;
  }

 private:
  /// The one stage loop behind forward() and forward_range(). Boundaries
  /// move from stage to stage (into `record->at[k + 1]` when recording).
  Tensor run(int first, int last, std::span<const Tensor> entry, bool train,
             PerturbationHook* hook, StageState* record) {
    std::vector<Tensor> scratch;
    std::span<const Tensor> cur = entry;
    for (int k = first; k < last; ++k) {
      std::vector<Tensor>& slot =
          record != nullptr ? record->at[static_cast<std::size_t>(k) + 1] : scratch;
      slot = run_stage(k, cur, train, hook);  // `cur` may alias `slot` until the move.
      cur = slot;
    }
    if (last != num_stages()) return Tensor();
    if (record == nullptr && first < last) return std::move(scratch[0]);
    return cur[0];
  }
};

}  // namespace redcane::capsnet
