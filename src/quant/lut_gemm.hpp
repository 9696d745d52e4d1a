// Shared LUT-accumulate GEMM: the single behavioral-execution core behind
// every emulated MAC datapath in the codebase.
//
// A float GEMM (or a convolution lowered to one) is executed the way the
// approximate hardware would run it: both operands are affine-quantized to
// 8-bit codes, every code product goes through a behavioral Multiplier via
// a per-call 256x256 product table, the products accumulate either exactly
// or through a behavioral approximate Adder chain (gemm_u8_lut_chain), and
// the affine cross terms dequantize the integer sums back to float:
//
//   x = mx + qx*sx, w = mw + qw*sw
//   sum x*w = mx*mw*taps + mw*sx*sum(qx) + mx*sw*sum(qw) + sx*sw*sum(qx*qw)
//
// Only the code-by-code product term touches the approximate units; the
// cross terms are dequantization bookkeeping and stay exact. Callers:
// quant::approx_conv2d (single conv), the capsule vote layers (grouped
// GEMMs sharing one table per layer call), and nn::Dense — all staging
// (codes, table, accumulators) carved from the per-thread workspace arena.
#pragma once

#include "approx/adder.hpp"
#include "approx/multiplier.hpp"
#include "quant/quantizer.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/tensor.hpp"

namespace redcane::quant {

/// One MAC datapath choice: the behavioral multiplier and (optionally) the
/// behavioral accumulator adder of an emulated GEMM. Null members mean
/// exact arithmetic for that unit.
struct MacUnit {
  const approx::Multiplier* mul = nullptr;  ///< Null = exact multiplier.
  const approx::Adder* adder = nullptr;     ///< Null = exact accumulation.
};

/// The core: A codes [m, k] (optional validity mask, null = all taps
/// valid), B codes [k, n], a prepared product table (usually from the
/// process-wide cache), and the affine params both operands were quantized
/// with. Accumulates through `adder` when non-null (one chain in ascending
/// k per output element), exactly otherwise, then dequantizes into `out`
/// [m, n] (adding `bias` [n] when non-null). The integer core runs through
/// the dispatched LUT microkernels (tensor/lut_kernel.hpp); accumulator
/// scratch comes from the per-thread workspace arena; rows are processed
/// independently, so results are bit-identical across thread counts and
/// dispatch tiers.
void lut_gemm_dequant(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::uint8_t* a_codes, const std::uint8_t* a_mask,
                      const QuantParams& pa, const std::uint8_t* b_codes,
                      const QuantParams& pb, const gemm::lk::LutTables& tables,
                      const approx::Adder* adder, const float* bias, float* out);

/// Emulated matrix product: a [m, k] * b [k, n] (+ bias [n], may be empty)
/// through `unit` at `bits`-wide operand quantization. Quantization params
/// are fitted per call from each operand's empirical range.
[[nodiscard]] Tensor approx_matmul(const Tensor& a, const Tensor& b, const Tensor& bias,
                                   const MacUnit& unit, int bits = 8);

}  // namespace redcane::quant
