// Error profiling walk-through: pick approximate multipliers from the
// library, characterize their arithmetic-error distributions over MAC
// chains (paper Sec. III-B), and derive the NM/NA noise parameters that
// the resilience analysis consumes.
//
//   ./error_profiling [component_name]
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "approx/error_profile.hpp"
#include "approx/library.hpp"

using namespace redcane;

int main(int argc, char** argv) {
  const std::string target = argc > 1 ? argv[1] : "";

  std::printf("%-18s %-10s %5s | %9s %9s %9s | %8s %8s %5s\n", "component", "family",
              "P[uW]", "std(1)", "std(9)", "std(81)", "NM(9)", "NA(9)", "gauss");

  // One input set per chain length, shared by every component.
  std::vector<approx::OperandStream> streams;
  for (int chain : {1, 9, 81}) {
    approx::ProfileConfig cfg;
    cfg.samples = 30000;
    cfg.chain_length = chain;
    cfg.seed = 12;
    streams.emplace_back(approx::InputDistribution::uniform(), cfg);
  }

  for (const approx::Multiplier* m : approx::multiplier_library()) {
    if (!target.empty() && m->info().name != target) continue;

    double stds[3] = {0, 0, 0};
    approx::ErrorProfile nine;
    for (std::size_t idx = 0; idx < streams.size(); ++idx) {
      approx::ErrorProfile p = streams[idx].profile(*m);
      stds[idx] = p.error_moments.stddev;
      if (idx == 1) nine = std::move(p);
    }
    std::printf("%-18s %-10s %5.0f | %9.1f %9.1f %9.1f | %8.5f %+8.5f %5s\n",
                m->info().name.c_str(), m->info().family.c_str(), m->info().power_uw,
                stds[0], stds[1], stds[2], nine.nm, nine.na,
                nine.gaussian_like ? "yes" : "NO");
  }

  std::printf(
      "\nReading the table: std grows with MAC-chain length (error accumulation); "
      "NM = std/range and NA = mean/range at chain length 9 (3x3 kernels) are the "
      "noise parameters injected by the resilience analysis. Components marked "
      "'NO' are not Gaussian-like and are excluded from automatic selection.\n");
  return 0;
}
