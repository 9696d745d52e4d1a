// Ablation D3: the paper's Step 4 drills into *non-resilient
// groups only*, arguing that "a considerable amount of unuseful testing
// can be skipped". This bench runs the full methodology and quantifies the
// exploration savings on both architectures.
#include <cstdio>

#include "bench_common.hpp"
#include "core/methodology.hpp"
#include "core/report.hpp"

using namespace redcane;

int main() {
  bool saved_everywhere = true;
  for (bench::BenchmarkId id :
       {bench::BenchmarkId::kCapsNetMnist, bench::BenchmarkId::kDeepCapsCifar10}) {
    bench::Benchmark b = bench::load_benchmark(id);
    bench::print_header(std::string("Ablation D3: exploration cost of ReD-CaNe on ") +
                        bench::benchmark_name(id));

    core::MethodologyConfig mc;
    mc.resilience.sweep.nms = {0.5, 0.1, 0.02, 0.005, 0.0};  // Compact grid.
    mc.resilience.seed = 303;
    mc.profile_samples = 20000;
    // Use a trimmed test set: this bench measures exploration cost, not
    // curve fidelity.
    const std::int64_t n_eval = 150;
    const Tensor test_x = capsnet::slice_rows(b.dataset.test_x, 0, n_eval);
    const std::vector<std::int64_t> test_y(b.dataset.test_y.begin(),
                                           b.dataset.test_y.begin() + n_eval);
    const core::MethodologyResult r =
        core::run_redcane(*b.model, test_x, test_y, b.dataset.name, mc);

    const std::int64_t run = r.evaluations_run;
    const std::int64_t saved = r.evaluations_saved_by_pruning;
    std::printf("baseline accuracy:      %.2f%%\n", r.baseline_accuracy * 100.0);
    std::printf("resilient groups:       %zu of 4\n", r.resilient_groups.size());
    std::printf("evaluations run:        %lld\n", static_cast<long long>(run));
    std::printf("evaluations saved:      %lld (%.0f%% of the unpruned layer-wise "
                "exploration)\n",
                static_cast<long long>(saved),
                100.0 * static_cast<double>(saved) /
                    static_cast<double>(saved + run > 0 ? saved + run : 1));
    std::printf("mean MAC power saving:  %.1f%%\n", r.mean_mac_power_saving() * 100.0);
    saved_everywhere = saved_everywhere && saved > 0;
  }

  std::printf("\nshape check (Step-4 pruning skips a nonzero amount of exploration on "
              "both architectures): %s\n",
              saved_everywhere ? "PASS" : "FAIL");
  return saved_everywhere ? 0 : 1;
}
