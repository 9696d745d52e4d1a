// Per-layer probes of the traced run: timed calls into each module's
// public functions at the shapes the workloads run. All probes run on one
// kernel thread — the condition sweep and serving workers run model code
// under — and report the median of repeated calls.
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "approx/error_profile.hpp"
#include "approx/library.hpp"
#include "attack/attack.hpp"
#include "backend/backend.hpp"
#include "capsnet/trainer.hpp"
#include "nn/conv2d.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"
#include "quant/approx_conv.hpp"

namespace perfbench {

using namespace redcane;

namespace {

/// Median wall time [ms] of `reps` calls of `fn`, each inside span `span`.
double time_ms(const char* span, int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    OBS_SPAN(span);
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// One execution backend as the stage probes drive it: a fresh hook per
/// call (NoiseBackend::make_hook) or an armed EmulationScope.
struct StageBackend {
  const char* name;
  const backend::ExecBackend* hooks = nullptr;       ///< Noise backend, else null.
  const backend::EmulationPlan* plan = nullptr;      ///< Emulated plan, else null.
};

/// Times stage k of `model` as forward_range(k, k + 1) over recorded
/// boundaries, for stages named `stages`, and the whole range the same
/// way, interleaved: each repetition times every stage and then the whole,
/// so both see the same host conditions. Reports each stage's median and
/// returns the median over repetitions of whole / sum of stages.
double probe_stages(capsnet::CapsModel& model, const std::string& model_key,
                    const std::vector<std::string>& stages, const StageBackend& b,
                    const Tensor& input, std::int64_t batch, int reps, Report& r) {
  const int n = model.num_stages();
  capsnet::StageState st;
  st.at.resize(static_cast<std::size_t>(n) + 1);
  st.at[0] = {capsnet::slice_rows(input, 0, batch)};
  std::unique_ptr<backend::EmulationScope> scope;
  if (b.plan != nullptr) scope = std::make_unique<backend::EmulationScope>(*b.plan);
  std::uint64_t salt = 1;
  const auto hook = [&] {
    return b.hooks != nullptr ? b.hooks->make_hook(salt++)
                              : std::unique_ptr<capsnet::PerturbationHook>();
  };
  {
    const auto h = hook();
    (void)model.forward_range(0, n, st, h.get(), /*record=*/true);
  }
  std::vector<std::vector<double>> stage_ms(static_cast<std::size_t>(n));
  std::vector<double> whole_over_sum;
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      const double ms = time_ms("capsnet.forward_range.stage", 1, [&] {
        const auto h = hook();
        (void)model.forward_range(k, k + 1, st, h.get(), false);
      });
      stage_ms[static_cast<std::size_t>(k)].push_back(ms);
      sum += ms;
    }
    const double whole = time_ms("capsnet.forward_range.whole", 1, [&] {
      const auto h = hook();
      (void)model.forward_range(0, n, st, h.get(), false);
    });
    whole_over_sum.push_back(whole / sum);
  }
  for (int k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(k);
    r.metric("stage." + model_key + "." + stages[i] + "." + b.name + ".b" +
                 std::to_string(batch) + "_ms",
             median(stage_ms[i]), "ms");
  }
  return median(whole_over_sum);
}

/// GFLOP/s (or GMAC/s) of one kernel call at a fixed shape, with its
/// computed operation count and the bytes of its operands and result.
void kernel_metric(Report& r, const std::string& name, const std::string& unit, double ops,
                   double bytes, double ms) {
  r.metric(name, ops / (ms * 1e6), unit);
  r.info(name + ".ops", ops);
  r.info(name + ".bytes", bytes);
}

}  // namespace

void run_layer_probes(Setup& s, Report& r) {
  OBS_SPAN("phase.layer_probes");
  std::thread([&] {
    single_threaded_kernels();
    capsnet::CapsNetModel& caps = *s.capsnet;
    const ManifestBackends mb = manifest_backends(s.manifest);
    const backend::NoiseBackend caps_noise(mb.rules, s.manifest.noise_seed);

    // ---- capsnet stages: exact / noise / emulated at batch 1 and 32.
    const std::vector<std::string> caps_stages = {"conv1",          "conv1_relu",  "primary_conv",
                                                  "primary_squash", "class_votes", "routing"};
    const StageBackend caps_backends[3] = {
        {"exact"}, {"noise", &caps_noise, nullptr}, {"emulated", nullptr, &mb.plan}};
    for (const StageBackend& b : caps_backends) {
      for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{32}}) {
        const double whole_over_sum =
            probe_stages(caps, "capsnet", caps_stages, b, s.mnist.test_x, batch, 11, r);
        if (batch == 32 && std::string(b.name) == "exact") {
          // Stage timing is only meaningful if the stages add up to the
          // whole forward pass.
          r.info("stage.capsnet.exact.b32.whole_over_stage_sum", whole_over_sum);
          r.check("stage.capsnet.exact.b32.stage_sum_within_10pct",
                  std::abs(whole_over_sum - 1.0) <= 0.1);
        }
      }
    }

    // ---- deepcaps stages: exact / noise at batch 32.
    std::vector<std::string> deep_stages;
    capsnet::DeepCapsModel& deep = *s.deepcaps.front().model;
    for (int k = 0; k < deep.num_stages(); ++k) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "s%02d", k);
      deep_stages.emplace_back(buf);
    }
    const backend::NoiseBackend deep_noise(
        {noise::group_rule(capsnet::OpKind::kMacOutput, noise::NoiseSpec{0.05, 0.0})}, 2020);
    for (const StageBackend& b : {StageBackend{"exact"}, StageBackend{"noise", &deep_noise}}) {
      (void)probe_stages(deep, "deepcaps", deep_stages, b, s.deepcaps.front().cifar.test_x, 32,
                         11, r);
    }

    // ---- tensor kernels at CapsNet-tiny's shapes, batch 32.
    const capsnet::CapsNetConfig& c = caps.config();
    const std::int64_t n = 32;
    const std::int64_t hw1 = c.input_hw - c.conv1_kernel + 1;                 // Conv1 out.
    const std::int64_t hw2 = (hw1 - c.primary_kernel) / c.primary_stride + 1;  // Primary out.
    const std::int64_t k1 = c.conv1_kernel * c.conv1_kernel * c.input_channels;
    const std::int64_t k2 = c.primary_kernel * c.primary_kernel * c.conv1_channels;
    const std::int64_t pch = c.primary_types * c.primary_dim;
    const std::int64_t in_caps = hw2 * hw2 * c.primary_types;
    const Tensor x1 = capsnet::slice_rows(s.mnist.test_x, 0, n);
    const Tensor w1 = random_tensor(
        Shape{c.conv1_kernel, c.conv1_kernel, c.input_channels, c.conv1_channels}, 1);
    const Tensor b1 = random_tensor(Shape{c.conv1_channels}, 2);
    const Tensor x2 = random_tensor(Shape{n, hw1, hw1, c.conv1_channels}, 3);
    const Tensor w2 =
        random_tensor(Shape{c.primary_kernel, c.primary_kernel, c.conv1_channels, pch}, 4);
    const Tensor b2 = random_tensor(Shape{pch}, 5);
    const Tensor xv = random_tensor(Shape{n, in_caps, c.primary_dim}, 6);
    const auto f = [](std::int64_t v) { return static_cast<double>(v); };
    const double conv1_macs = f(n * hw1 * hw1 * c.conv1_channels * k1);
    const double conv1_bytes =
        4.0 * f(x1.numel() + w1.numel() + b1.numel() + n * hw1 * hw1 * c.conv1_channels);
    const double prim_macs = f(n * hw2 * hw2 * pch * k2);
    const double prim_bytes = 4.0 * f(x2.numel() + w2.numel() + b2.numel() + n * hw2 * hw2 * pch);
    const double votes_macs = f(n * in_caps * c.num_classes * c.primary_dim * c.class_dim);
    const double votes_bytes =
        4.0 * f(xv.numel() + in_caps * c.num_classes * c.primary_dim * c.class_dim +
                n * in_caps * c.num_classes * c.class_dim);
    const int s2 = static_cast<int>(c.primary_stride);
    kernel_metric(r, "kernel.conv1.f32_gflops", "GFLOP/s", 2 * conv1_macs, conv1_bytes,
                  time_ms("nn.conv2d_forward", 31,
                          [&] { (void)nn::conv2d_forward(x1, w1, b1, 1, 0); }));
    kernel_metric(r, "kernel.primary.f32_gflops", "GFLOP/s", 2 * prim_macs, prim_bytes,
                  time_ms("nn.conv2d_forward", 31,
                          [&] { (void)nn::conv2d_forward(x2, w2, b2, s2, 0); }));
    kernel_metric(r, "kernel.votes.f32_gflops", "GFLOP/s", 2 * votes_macs, votes_bytes,
                  time_ms("capsnet.forward_votes", 31, [&] {
                    (void)caps.class_caps().forward_votes(xv, false, nullptr);
                  }));
    const approx::Multiplier& mul = approx::multiplier_by_name(kServeComponent);
    const quant::MacUnit unit{&mul, nullptr};
    kernel_metric(r, "kernel.conv1.lut_gmacs", "GMAC/s", conv1_macs, conv1_bytes,
                  time_ms("quant.approx_conv2d", 21, [&] {
                    (void)quant::approx_conv2d(x1, w1, b1, quant::ApproxConvSpec{1, 0, 8}, unit);
                  }));
    kernel_metric(r, "kernel.primary.lut_gmacs", "GMAC/s", prim_macs, prim_bytes,
                  time_ms("quant.approx_conv2d", 21, [&] {
                    (void)quant::approx_conv2d(x2, w2, b2, quant::ApproxConvSpec{s2, 0, 8}, unit);
                  }));

    // ---- approx: profiling one component, as Step 6 does per component.
    for (const int chain : {81, 9}) {
      approx::ProfileConfig pc;
      pc.samples = 20000;
      pc.chain_length = chain;
      pc.seed = 7;
      const double ms = time_ms("approx.profile_multiplier", 3, [&] {
        (void)approx::profile_multiplier(mul, approx::InputDistribution::uniform(), pc);
      });
      r.metric("approx.profile_ms.chain" + std::to_string(chain), ms, "ms");
      if (chain == 81) {
        r.metric("approx.profile_mmac_per_s", 20000.0 * chain / (ms * 1e3), "MMAC/s");
      }
    }

    // ---- attack: Step 8's perturbations over the design test set.
    const std::span<const std::int64_t> labels(s.mnist.test_y);
    for (const auto& [kind, key, severities] :
         {std::tuple{attack::AttackKind::kFgsm, "fgsm", std::vector<double>{0.05, 0.1}},
          std::tuple{attack::AttackKind::kRotate, "rotate", std::vector<double>{10.0, 25.0}}}) {
      attack::Scenario sc;
      sc.kind = kind;
      double total = 0.0;
      for (const double sev : severities) {
        total += time_ms("attack.apply_attack", 3, [&] {
          (void)attack::apply_attack(caps, s.mnist.test_x, labels, sc.at(sev));
        });
      }
      r.metric(std::string("attack.apply_ms.") + key, total, "ms");
    }
  }).join();
}

}  // namespace perfbench
