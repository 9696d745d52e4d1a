// QuantizeHook: a PerturbationHook that emulates a b-bit fixed-point
// datapath by round-tripping selected tensors through the min-max
// quantizer (paper Eq. 1).
//
// This powers the wordlength ablation (bench_ablation_wordlength): the
// paper adopts an 8-bit wordlength citing [17]; sweeping b shows where
// accuracy actually starts to fall on our benchmarks.
#pragma once

#include <cstdint>
#include <optional>

#include "capsnet/inject.hpp"

namespace redcane::noise {

class QuantizeHook final : public capsnet::PerturbationHook {
 public:
  /// Quantizes every tensor of `kind` (all kinds when nullopt) to `bits`.
  explicit QuantizeHook(int bits, std::optional<capsnet::OpKind> kind = std::nullopt);

  void process(const std::string& layer, capsnet::OpKind kind, Tensor& x) override;

  [[nodiscard]] std::int64_t tensors_quantized() const { return count_; }

 private:
  int bits_;
  std::optional<capsnet::OpKind> kind_;
  std::int64_t count_ = 0;
};

}  // namespace redcane::noise
