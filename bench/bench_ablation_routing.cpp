// Ablation D2: is the resilience of the routed layers really
// due to the run-time adaptation of the routing coefficients?
//
// The paper attributes the high resilience of Caps3D/ClassCaps to the
// dynamic updates of b and k during inference. Comparing "3 routing
// iterations" against "1 iteration" naively is unfair: each extra
// iteration adds injection events. This bench therefore perturbs only the
// *votes* (the first MacOutput event of the routed layer per forward) so
// both configurations absorb exactly one injection, and measures how well
// the routing filters it out.
#include <cstdio>

#include "bench_common.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/trainer.hpp"
#include "noise/noise_model.hpp"

using namespace redcane;

namespace {

/// Perturbs every `period`-th MacOutput tensor of one layer — with
/// period = routing_iters + 1 that is exactly the votes tensor of each
/// forward pass through the layer.
class VotesOnlyHook final : public capsnet::PerturbationHook {
 public:
  VotesOnlyHook(std::string layer, noise::NoiseSpec spec, int period, std::uint64_t seed)
      : layer_(std::move(layer)), spec_(spec), period_(period), rng_(seed) {}

  void process(const std::string& layer, capsnet::OpKind kind, Tensor& x) override {
    if (layer != layer_ || kind != capsnet::OpKind::kMacOutput) return;
    if (count_++ % period_ == 0) noise::inject_noise(x, spec_, rng_);
  }

 private:
  std::string layer_;
  noise::NoiseSpec spec_;
  int period_;
  std::int64_t count_ = 0;
  Rng rng_;
};

}  // namespace

int main() {
  bench::Benchmark b = bench::load_benchmark(bench::BenchmarkId::kDeepCapsCifar10);
  auto* model = dynamic_cast<capsnet::DeepCapsModel*>(b.model.get());

  bench::print_header(
      "Ablation D2: routing adaptation vs vote-noise resilience (Caps3D)");
  std::printf("%-8s %16s %16s\n", "NM", "drop (3 iters)", "drop (1 iter)");

  double mean_adaptive = 0.0;
  double mean_frozen = 0.0;
  const std::vector<double> nms{0.5, 0.2, 0.1, 0.05};
  for (double nm : nms) {
    double drops[2] = {0.0, 0.0};
    int idx = 0;
    for (int iters : {3, 1}) {
      model->caps3d().set_routing_iters(iters);
      model->class_caps().set_routing_iters(iters);
      const double base =
          capsnet::evaluate(*model, b.dataset.test_x, b.dataset.test_y, nullptr);
      VotesOnlyHook hook("Caps3D", noise::NoiseSpec{nm, 0.0}, iters + 1,
                         /*seed=*/static_cast<std::uint64_t>(nm * 1e6) + iters);
      const double noisy =
          capsnet::evaluate(*model, b.dataset.test_x, b.dataset.test_y, &hook);
      drops[idx++] = (noisy - base) * 100.0;
    }
    std::printf("%-8.2f %+15.2f%% %+15.2f%%\n", nm, drops[0], drops[1]);
    mean_adaptive += drops[0] / static_cast<double>(nms.size());
    mean_frozen += drops[1] / static_cast<double>(nms.size());
  }
  model->caps3d().set_routing_iters(3);
  model->class_caps().set_routing_iters(3);

  std::printf("\nmean drop: adaptive (3 iters) %+.2f%%, frozen (1 iter) %+.2f%%\n",
              mean_adaptive, mean_frozen);

  // Finding (documented in EXPERIMENTS.md): with the injection count
  // equalized, frozen/uniform routing tolerates vote noise at least as
  // well as adaptive routing — plain averaging over many votes cancels
  // zero-mean noise, while agreement-based reweighting can lock onto it.
  // The *observed* resilience of the routed layers (Figs. 9/10/12) is
  // therefore attributable primarily to vote averaging plus the softmax's
  // bounded coefficients rather than to coefficient adaptation per se; the
  // paper's causal attribution is not confirmed by this reproduction.
  // Shape check: the routed layer is resilient in BOTH configurations for
  // NM <= 0.1 (the regime where MAC-output noise elsewhere already costs
  // tens of percent).
  bool both_resilient = true;
  // Rows printed above: nms = {0.5, 0.2, 0.1, 0.05}; re-evaluate NM = 0.1.
  for (int iters : {3, 1}) {
    model->caps3d().set_routing_iters(iters);
    model->class_caps().set_routing_iters(iters);
    const double base =
        capsnet::evaluate(*model, b.dataset.test_x, b.dataset.test_y, nullptr);
    VotesOnlyHook hook("Caps3D", noise::NoiseSpec{0.1, 0.0}, iters + 1, 555 + iters);
    const double noisy =
        capsnet::evaluate(*model, b.dataset.test_x, b.dataset.test_y, &hook);
    both_resilient = both_resilient && (noisy - base) * 100.0 > -2.0;
  }
  model->caps3d().set_routing_iters(3);
  model->class_caps().set_routing_iters(3);

  std::printf("\nshape check (routed layer tolerates vote noise at NM = 0.1 in both "
              "configurations; adaptation-vs-averaging finding reported above): %s\n",
              both_resilient ? "PASS" : "FAIL");
  return both_resilient ? 0 : 1;
}
