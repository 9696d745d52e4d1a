// Behavioral models of 8x8 -> 16 bit unsigned approximate multipliers.
//
// The paper selects components from the EvoApprox8B library [19]. That
// library's circuits are not reimplemented gate-for-gate here; instead we
// provide 35 behavioral multipliers drawn from seven published approximate-
// multiplier design families that span the same spectrum of error
// magnitude, bias and power savings. Each component is
// an exact bit-level behavioral model of its circuit family — not a noise
// generator — so error distributions emerge from real arithmetic.
//
// Families:
//   exact       — golden reference array multiplier
//   res_trunc   — result truncation: low k output bits forced to zero
//   op_trunc    — operand truncation: low k bits of each input zeroed
//   bam         — broken-array multiplier: partial-product columns < k removed
//   loa         — lower-part OR: columns < k approximated by OR compression
//   drum        — DRUM-k dynamic-range unbiased segment multiplier
//   mitchell    — Mitchell logarithmic multiplier (optionally truncated mantissa)
//   kulkarni    — recursive 2x2 underdesigned multiplier (3*3 = 7)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace redcane::approx {

/// Static metadata of a multiplier component.
struct MultiplierInfo {
  std::string name;          ///< Library identifier, e.g. "axm_drum4".
  std::string family;        ///< Design family, e.g. "drum".
  int param = 0;             ///< Family parameter (k); 0 when unused.
  std::string paper_analog;  ///< EvoApprox8B component it stands in for ("" if none).
  double power_uw = 0.0;     ///< Power at 45 nm-style operating point [uW].
  double area_um2 = 0.0;     ///< Cell area [um^2].

  /// Power saving relative to the exact multiplier, in [0, 1).
  [[nodiscard]] double power_saving(double exact_power_uw) const {
    return 1.0 - power_uw / exact_power_uw;
  }
};

/// Interface of an 8x8 unsigned behavioral multiplier.
class Multiplier {
 public:
  virtual ~Multiplier() = default;

  /// Approximate product of a * b; exact result fits in 16 bits but
  /// approximations may overshoot slightly, hence 32-bit return.
  [[nodiscard]] virtual std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const = 0;

  [[nodiscard]] const MultiplierInfo& info() const { return info_; }

  /// Signed arithmetic error vs the exact product (Eq. 2 of the paper).
  [[nodiscard]] std::int32_t error(std::uint8_t a, std::uint8_t b) const {
    return static_cast<std::int32_t>(multiply(a, b)) -
           static_cast<std::int32_t>(a) * static_cast<std::int32_t>(b);
  }

 protected:
  explicit Multiplier(MultiplierInfo info) : info_(std::move(info)) {}

 private:
  MultiplierInfo info_;
};

/// Entries of a product table: one per (a, b) operand pair.
inline constexpr std::size_t kProductTableSize = 256 * 256;

/// Materializes the product table of `mul` into `table` (kProductTableSize
/// entries, table[(a << 8) | b] = mul.multiply(a, b)). One pass of 65536
/// virtual calls replaces one call per MAC for every reader of the table:
/// the emulated LUT-GEMM datapath and the error profiler.
void build_product_table(const Multiplier& mul, std::uint32_t* table);

/// Factory helpers (power/area filled by the library; see library.cpp).
std::unique_ptr<Multiplier> make_exact_multiplier(MultiplierInfo info);
std::unique_ptr<Multiplier> make_res_trunc_multiplier(MultiplierInfo info);   // param = k
std::unique_ptr<Multiplier> make_op_trunc_multiplier(MultiplierInfo info);    // param = k
std::unique_ptr<Multiplier> make_bam_multiplier(MultiplierInfo info);         // param = k
std::unique_ptr<Multiplier> make_loa_multiplier(MultiplierInfo info);         // param = k
std::unique_ptr<Multiplier> make_drum_multiplier(MultiplierInfo info);        // param = k
std::unique_ptr<Multiplier> make_mitchell_multiplier(MultiplierInfo info);    // param = mantissa bits kept (0 = full)
std::unique_ptr<Multiplier> make_kulkarni_multiplier(MultiplierInfo info);    // param = 0 full, 1 hybrid (exact high quadrant)
std::unique_ptr<Multiplier> make_hybrid_trunc_multiplier(MultiplierInfo info);  // param = op_k*16 + res_k

}  // namespace redcane::approx
