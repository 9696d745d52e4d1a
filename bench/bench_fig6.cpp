// Reproduces paper Fig. 6: arithmetic-error distributions of two
// approximate multipliers (NGR-class and DM1-class) for a single
// multiplication and for 9- and 81-long MAC chains, with their Gaussian
// interpolations.
//
// Paper claims to reproduce: the distributions are Gaussian-like (31/35
// components), widen with chain length, and DM1 (deeper power saving) is
// wider than NGR.
#include <cstdio>
#include <string>

#include "approx/error_profile.hpp"
#include "approx/library.hpp"
#include "bench_common.hpp"

using namespace redcane;

namespace {

void ascii_histogram(const approx::ErrorProfile& p, std::size_t bins) {
  const stats::Histogram h = approx::error_histogram(p, bins);
  const std::vector<double> fit = stats::gaussian_expected_counts(
      h, p.error_moments.mean, p.error_moments.stddev, h.total());
  std::int64_t max_count = 1;
  for (std::size_t b = 0; b < h.bins(); ++b) max_count = std::max(max_count, h.count(b));

  std::printf("  %10s  %-40s %s\n", "error", "real (#)", "| gaussian fit (*)");
  for (std::size_t b = 0; b < h.bins(); ++b) {
    const int bar = static_cast<int>(40.0 * static_cast<double>(h.count(b)) /
                                     static_cast<double>(max_count));
    const int fit_bar =
        static_cast<int>(40.0 * fit[b] / static_cast<double>(max_count));
    std::printf("  %10.0f  %-40s | %s\n", h.bin_center(b),
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                std::string(static_cast<std::size_t>(std::max(0, fit_bar)), '*').c_str());
  }
}

approx::ErrorProfile run(const approx::Multiplier& m, int chain) {
  approx::ProfileConfig cfg;
  cfg.samples = 100000;  // Paper: |I| = 1e5 per scenario.
  cfg.chain_length = chain;
  cfg.seed = 6;
  return approx::profile_multiplier(m, approx::InputDistribution::uniform(), cfg);
}

}  // namespace

int main() {
  bool all_gaussian = true;
  double prev_std = 0.0;
  bool widening = true;

  for (const char* analog : {"mul8u_NGR", "mul8u_DM1"}) {
    const approx::Multiplier& m = approx::multiplier_by_analog(analog);
    bench::print_header(std::string("Fig. 6: error distribution of ") + analog + " (" +
                        m.info().name + ", power " +
                        std::to_string(m.info().power_uw) + " uW)");
    prev_std = 0.0;
    for (int chain : {1, 9, 81}) {
      const approx::ErrorProfile p = run(m, chain);
      std::printf(
          "\n%d iteration(s): mean %+.1f  std %.1f  NM %.5f  NA %+.5f  "
          "gaussian-fit L1 %.3f (%s)\n",
          chain, p.error_moments.mean, p.error_moments.stddev, p.nm, p.na,
          p.gaussian_distance, p.gaussian_like ? "gaussian-like" : "NOT gaussian-like");
      if (chain == 81) ascii_histogram(p, 33);
      if (chain > 1) widening = widening && (p.error_moments.stddev > prev_std);
      prev_std = p.error_moments.stddev;
      if (chain >= 9) all_gaussian = all_gaussian && p.gaussian_like;
    }
  }

  // Library-wide Gaussianity census (paper: 31 of 35 components).
  bench::print_header("Library census: gaussian-like error profiles (9-MAC)");
  int gaussian_like = 0;
  approx::ProfileConfig cfg;
  cfg.samples = 20000;
  cfg.chain_length = 9;
  cfg.seed = 6;
  const approx::OperandStream stream(approx::InputDistribution::uniform(), cfg);
  for (const approx::Multiplier* m : approx::multiplier_library()) {
    if (stream.profile(*m).gaussian_like) ++gaussian_like;
  }
  std::printf("gaussian-like: %d of %zu components (paper: 31 of 35)\n", gaussian_like,
              approx::multiplier_library().size());

  const bool shape_holds = all_gaussian && widening && gaussian_like >= 28;
  std::printf("\nshape check (NGR/DM1 gaussian-like, error widens with chain, "
              "majority of library gaussian-like): %s\n",
              shape_holds ? "PASS" : "FAIL");
  return shape_holds ? 0 : 1;
}
