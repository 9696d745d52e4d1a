// The approximate-multiplier component library (EvoApprox8B stand-in).
//
// 35 behavioral components spanning power savings from 0% to ~93% and
// error magnitudes (NM) from 0 to a few percent of the output range,
// mirroring the spectrum of the paper's Table IV. Fifteen components are
// designated "paper analogs": their power/area columns carry the exact
// values the paper reports for the corresponding EvoApprox8B circuit, so
// energy benches reproduce the published savings figures.
#pragma once

#include <string>
#include <vector>

#include "approx/multiplier.hpp"

namespace redcane::approx {

/// All 35 multiplier components, exact reference first. References are
/// owned by a program-lifetime registry.
const std::vector<const Multiplier*>& multiplier_library();

/// Lookup by library name (e.g. "axm_drum4_dm1"). Aborts on unknown name.
const Multiplier& multiplier_by_name(const std::string& name);

/// Lookup by paper-analog name (e.g. "mul8u_NGR"). Aborts on unknown name.
const Multiplier& multiplier_by_analog(const std::string& analog);

/// The exact reference component ("axm_exact", analog mul8u_1JFF).
const Multiplier& exact_multiplier();

/// Components that carry a paper analog, in Table IV row order.
std::vector<const Multiplier*> paper_analog_multipliers();

}  // namespace redcane::approx
