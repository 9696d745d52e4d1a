#include "quant/lut_gemm.hpp"

#include "quant/lut_cache.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/workspace.hpp"

namespace redcane::quant {
namespace {

/// gemm::U32Accum adapter over a behavioral adder.
class AdderAccum final : public gemm::U32Accum {
 public:
  explicit AdderAccum(const approx::Adder& adder) : adder_(adder) {}
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const override {
    return adder_.add(a, b);
  }

 private:
  const approx::Adder& adder_;
};

}  // namespace

void lut_gemm_dequant(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::uint8_t* a_codes, const std::uint8_t* a_mask,
                      const QuantParams& pa, const std::uint8_t* b_codes,
                      const QuantParams& pb, const gemm::lk::LutTables& tables,
                      const approx::Adder* adder, const float* bias, float* out) {
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  std::uint64_t* acc_qw = wksp.alloc<std::uint64_t>(static_cast<std::size_t>(m * n));
  std::uint64_t* acc_qa = wksp.alloc<std::uint64_t>(static_cast<std::size_t>(m));
  std::int64_t* taps = wksp.alloc<std::int64_t>(static_cast<std::size_t>(m));

  // The exact path keeps 64-bit product sums (unbounded k); the adder path
  // runs the 32-bit accumulator datapath the chain models. Both feed the
  // identical dequantization, so an exact adder object reproduces the
  // exact-path floats bit-for-bit (8-bit code sums stay far below 2^32).
  std::uint64_t* qq64 = nullptr;
  std::uint32_t* qq32 = nullptr;
  if (adder == nullptr) {
    qq64 = wksp.alloc<std::uint64_t>(static_cast<std::size_t>(m * n));
    gemm::lk::lut_gemm_u8(m, n, k, a_codes, a_mask, b_codes, tables, qq64, acc_qw, acc_qa,
                          taps);
  } else {
    qq32 = wksp.alloc<std::uint32_t>(static_cast<std::size_t>(m * n));
    const AdderAccum accum(*adder);
    gemm::lk::lut_gemm_u8_chain(m, n, k, a_codes, a_mask, b_codes, tables, accum, qq32,
                                acc_qw, acc_qa, taps);
  }

  const double sa = pa.step();
  const double sb = pb.step();
#pragma omp parallel for schedule(static) if (m >= 64)
  for (std::int64_t r = 0; r < m; ++r) {
    const double row_base =
        pa.min * pb.min * static_cast<double>(taps[static_cast<std::size_t>(r)]) +
        pb.min * sa * static_cast<double>(acc_qa[static_cast<std::size_t>(r)]);
    for (std::int64_t j = 0; j < n; ++j) {
      const std::size_t idx = static_cast<std::size_t>(r * n + j);
      double v = row_base;
      v += pa.min * sb * static_cast<double>(acc_qw[idx]);
      v += sa * sb *
           (qq64 != nullptr ? static_cast<double>(qq64[idx]) : static_cast<double>(qq32[idx]));
      if (bias != nullptr) v += bias[j];
      out[idx] = static_cast<float>(v);
    }
  }
}

Tensor approx_matmul(const Tensor& a, const Tensor& b, const Tensor& bias,
                     const MacUnit& unit, int bits) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);
  const QuantParams pa = fit_params(a, bits);
  const QuantParams pb = fit_params(b, bits);

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  std::uint8_t* qa = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(a.numel()));
  std::uint8_t* qb = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(b.numel()));
  quantize_u8(a, pa, qa);
  quantize_u8(b, pb, qb);
  const gemm::lk::LutTables& tables = lut_cache_get(unit.mul, bits);

  Tensor out(Shape{m, n});
  lut_gemm_dequant(m, n, k, qa, nullptr, pa, qb, pb, tables, unit.adder,
                   bias.empty() ? nullptr : bias.data().data(), out.data().data());
  return out;
}

}  // namespace redcane::quant
