// Step 6 of ReD-CaNe: Select Approximate Components.
//
// Each operation's tolerable noise magnitude (from Steps 2-5) is matched
// against the profiled NM of every library component; the lowest-power
// component whose NM fits is selected — "more aggressive approximations
// are selected for more resilient operations" (paper Sec. IV).
#pragma once

#include <string>
#include <vector>

#include "approx/error_profile.hpp"
#include "approx/library.hpp"
#include "core/groups.hpp"

namespace redcane::core {

/// A library component with its profiled noise parameters.
struct ProfiledComponent {
  const approx::Multiplier* mul = nullptr;  ///< Profiled component (library-owned).
  double nm = 0.0;            ///< Noise magnitude, std(Δ)/(chain_length*255^2).
  double na = 0.0;            ///< Noise average, mean(Δ)/(chain_length*255^2).
  bool gaussian_like = true;  ///< Error histogram close to its Gaussian fit.
};

/// Profiles every library multiplier once under `dist` with `chain_length`
/// MACs per sample (9 for 3x3 kernels, 81 for 9x9; paper Sec. III-B), all
/// over one approx::OperandStream. Entry i equals
/// approx::profile_multiplier on library component i with the same
/// arguments. Aborts if chain_length < 1 or samples < 1.
[[nodiscard]] std::vector<ProfiledComponent> profile_library(
    const approx::InputDistribution& dist, int chain_length, std::int64_t samples,
    std::uint64_t seed);

/// The lowest-power Gaussian-like component with nm <= tolerable_nm and
/// |na| <= tolerable_nm; entries whose nm or na is not finite are skipped.
/// Always succeeds: the exact multiplier is the fallback.
[[nodiscard]] const approx::Multiplier* select_component(
    const std::vector<ProfiledComponent>& profiled, double tolerable_nm);

/// One operation's final choice.
struct SiteSelection {
  Site site;                  ///< The (layer, kind) operation being approximated.
  double tolerable_nm = 0.0;  ///< NM budget from Steps 3/5 (dimensionless).
  const approx::Multiplier* component = nullptr;  ///< Selected library component.

  /// Selected component's power saving vs the exact multiplier, as a
  /// fraction in [0, 1) (0 when no component is selected).
  [[nodiscard]] double power_saving() const;
};

}  // namespace redcane::core
