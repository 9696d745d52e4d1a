// GaussianInjector: the PerturbationHook that realizes the paper's
// "specialized node for the noise injection" (Sec. V-B). Rules select
// which (layer, operation-kind) sites are perturbed; matching sites get
// Eq. 3-4 noise from a deterministic per-hook random stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capsnet/inject.hpp"
#include "noise/noise_model.hpp"

namespace redcane::noise {

/// A site-selection rule. Empty optionals match everything, so
/// {kind=kSoftmax} perturbs the whole softmax group (Step 2) and
/// {kind=kMacOutput, layer="Caps2D7"} perturbs one layer of one group
/// (Step 4).
struct InjectionRule {
  std::optional<capsnet::OpKind> kind;
  std::optional<std::string> layer;
  NoiseSpec noise;

  [[nodiscard]] bool matches(const std::string& site_layer, capsnet::OpKind site_kind) const {
    if (kind.has_value() && *kind != site_kind) return false;
    if (layer.has_value() && *layer != site_layer) return false;
    return true;
  }
};

class GaussianInjector final : public capsnet::PerturbationHook {
 public:
  GaussianInjector(std::vector<InjectionRule> rules, std::uint64_t seed);

  void process(const std::string& layer, capsnet::OpKind kind, Tensor& x) override;

  /// Number of tensors actually perturbed so far.
  [[nodiscard]] std::int64_t injections() const { return injections_; }

  /// Number of sites visited (perturbed or not) — the exploration-cost
  /// unit of the paper's Step-4 pruning argument.
  [[nodiscard]] std::int64_t sites_visited() const { return sites_visited_; }

 private:
  std::vector<InjectionRule> rules_;
  Rng rng_;
  std::int64_t injections_ = 0;
  std::int64_t sites_visited_ = 0;
};

/// Convenience rule builders.
[[nodiscard]] InjectionRule group_rule(capsnet::OpKind kind, const NoiseSpec& noise);
[[nodiscard]] InjectionRule layer_rule(capsnet::OpKind kind, std::string layer,
                                       const NoiseSpec& noise);

}  // namespace redcane::noise
