// Quantized 2D convolution executed through a behavioral approximate
// multiplier — the "ground truth" path of the model-vs-real validation
// (paper Table IV; Step 7 in docs/methodology.md).
//
// Inputs and weights are affine-quantized to 8 bits; every product of the
// convolution's dot products goes through the chosen Multiplier; the
// affine cross terms are accumulated exactly (they are additions in
// hardware). The result is dequantized back to float, so it can be
// compared elementwise against the float reference convolution.
#pragma once

#include "approx/multiplier.hpp"
#include "quant/lut_gemm.hpp"
#include "quant/quantizer.hpp"
#include "tensor/tensor.hpp"

namespace redcane::quant {

struct ApproxConvSpec {
  int stride = 1;
  int pad = 0;   ///< Symmetric zero padding.
  int bits = 8;  ///< Quantization wordlength for both operands.
};

/// x: [N, H, W, Cin] NHWC, w: [KH, KW, Cin, Cout], bias: [Cout] (may be
/// empty). Returns [N, Ho, Wo, Cout] in float. The whole batch runs as one
/// im2col + LUT-accumulate GEMM (quant/lut_gemm.hpp): one product-table
/// build per call, accumulation through `unit.adder` when set.
[[nodiscard]] Tensor approx_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                                   const ApproxConvSpec& spec, const MacUnit& unit);

/// Multiplier-only convenience (exact accumulation), the historical entry.
[[nodiscard]] Tensor approx_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                                   const ApproxConvSpec& spec,
                                   const approx::Multiplier& mul);

/// Float reference with identical loop structure (exact arithmetic, no
/// quantization), for error measurement.
[[nodiscard]] Tensor reference_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                                      const ApproxConvSpec& spec);

}  // namespace redcane::quant
