// Min-max linear quantization (paper Eq. 1).
//
// A floating-point value x in [min, max] maps to a b-bit code
//   Q(x) = round((x - min) / (max - min) * (2^b - 1))
// and back via the affine x ≈ min + q * step. The CapsNet itself runs in
// float; quantization is used (a) to derive representative 8-bit operand
// pools for error profiling under "real" input distributions and (b) to
// execute convolutions through behavioral approximate multipliers for the
// model-vs-real validation (Step 7 in docs/methodology.md).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace redcane::quant {

/// Affine quantization parameters for one tensor.
struct QuantParams {
  double min = 0.0;
  double max = 1.0;
  int bits = 8;

  /// Largest code value (2^bits - 1).
  [[nodiscard]] std::uint32_t max_code() const { return (1U << bits) - 1U; }

  /// Real-valued width of one code step.
  [[nodiscard]] double step() const {
    return (max - min) / static_cast<double>(max_code());
  }
};

/// Derives params covering the tensor's empirical [min, max]. A degenerate
/// (constant) tensor gets a unit-width range so step() stays finite.
[[nodiscard]] QuantParams fit_params(const Tensor& t, int bits);

/// Quantizes every element to its code (clamped to [0, max_code]).
[[nodiscard]] std::vector<std::uint32_t> quantize(const Tensor& t, const QuantParams& p);

/// Convenience for 8-bit pools consumed by the error profiler.
[[nodiscard]] std::vector<std::uint8_t> quantize_u8(const Tensor& t, const QuantParams& p);

/// Allocation-free variant: writes t.numel() codes into `out` (hot paths
/// pass workspace-arena buffers; see quant/approx_conv.cpp).
void quantize_u8(const Tensor& t, const QuantParams& p, std::uint8_t* out);

/// Reconstructs a float tensor from codes.
[[nodiscard]] Tensor dequantize(const std::vector<std::uint32_t>& codes, const Shape& shape,
                                const QuantParams& p);

/// Round-trip helper: quantize then dequantize.
[[nodiscard]] Tensor quantize_dequantize(const Tensor& t, int bits);

}  // namespace redcane::quant
