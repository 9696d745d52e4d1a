// Per-operation unit energies (paper Table I): 8-bit fixed-point units
// synthesized in 45 nm CMOS with Synopsys Design Compiler. We embed the
// published values as the calibration table of the energy model
// (the paper itself treats them as fixed constants).
#pragma once

#include <cstdint>

namespace redcane::energy {

enum class OpType : std::uint8_t { kAdd, kMul, kDiv, kExp, kSqrt };

inline constexpr int kNumOpTypes = 5;

[[nodiscard]] const char* op_type_name(OpType t);

/// Energy per operation in picojoules.
struct UnitEnergy {
  double add_pj = 0.0202;
  double mul_pj = 0.5354;
  double div_pj = 1.0717;
  double exp_pj = 0.1578;
  double sqrt_pj = 0.7805;

  [[nodiscard]] double of(OpType t) const;

  /// The paper's published table.
  static UnitEnergy paper_45nm();
};

}  // namespace redcane::energy
