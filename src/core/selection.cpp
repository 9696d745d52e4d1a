#include "core/selection.hpp"

#include <cmath>

namespace redcane::core {

std::vector<ProfiledComponent> profile_library(const approx::InputDistribution& dist,
                                               int chain_length, std::int64_t samples,
                                               std::uint64_t seed) {
  approx::ProfileConfig cfg;
  cfg.chain_length = chain_length;
  cfg.samples = samples;
  cfg.seed = seed;
  const approx::OperandStream stream(dist, cfg);
  std::vector<ProfiledComponent> out;
  for (const approx::Multiplier* m : approx::multiplier_library()) {
    const approx::ErrorProfile p = stream.profile(*m);
    out.push_back({m, p.nm, p.na, p.gaussian_like});
  }
  return out;
}

const approx::Multiplier* select_component(const std::vector<ProfiledComponent>& profiled,
                                           double tolerable_nm) {
  const approx::Multiplier* best = &approx::exact_multiplier();
  double best_power = best->info().power_uw;
  for (const ProfiledComponent& pc : profiled) {
    if (!pc.gaussian_like) continue;  // Paper's model covers Gaussian-like errors.
    // A NaN would pass the rejection below: every comparison with it is false.
    if (!std::isfinite(pc.nm) || !std::isfinite(pc.na)) continue;
    if (pc.nm > tolerable_nm || std::abs(pc.na) > tolerable_nm) continue;
    if (pc.mul->info().power_uw < best_power) {
      best = pc.mul;
      best_power = pc.mul->info().power_uw;
    }
  }
  return best;
}

double SiteSelection::power_saving() const {
  if (component == nullptr) return 0.0;
  return component->info().power_saving(approx::exact_multiplier().info().power_uw);
}

}  // namespace redcane::core
