// Benchmark set-up: every input is generated from the run's --seed.
#include "approx/error_profile.hpp"
#include "approx/library.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "data/synthetic.hpp"
#include "perf.hpp"

namespace perfbench {

using namespace redcane;

Setup make_setup(const Plan& plan) {
  Setup s;
  // Seed streams: one per generated input so workloads can never share a
  // draw by accident.
  const std::uint64_t seed = plan.seed * 1000003ULL;
  s.mnist = data::make_benchmark(data::DatasetKind::kMnist, 28, kCapsTrain, kCapsTest,
                                 seed + 1);

  Rng caps_rng(seed + 2);
  auto caps = std::make_unique<capsnet::CapsNetModel>(capsnet::CapsNetConfig::tiny(), caps_rng);
  // The redcane_full_flow training recipe.
  capsnet::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 25;
  tc.lr = 2e-3;
  tc.shuffle_seed = seed + 3;
  capsnet::train(*caps, s.mnist.train_x, s.mnist.train_y, tc);

  capsnet::DeepCapsConfig dc = capsnet::DeepCapsConfig::tiny();
  dc.input_hw = 16;
  for (int k = 0; k < kSweepInstances; ++k) {
    const std::uint64_t k_seed = seed + 4 + static_cast<std::uint64_t>(k) * 1000;
    data::SyntheticSpec spec;
    spec.kind = data::DatasetKind::kCifar10;
    spec.hw = 16;
    spec.channels = 3;
    spec.train_count = 4;  // Unused: sweeps read the test split only.
    spec.test_count = plan.deepcaps_test;
    spec.seed = k_seed;
    Rng deep_rng(k_seed + 1);
    s.deepcaps.push_back(
        {data::make_synthetic(spec), std::make_unique<capsnet::DeepCapsModel>(dc, deep_rng)});
  }

  // Serving manifest: the one component pinned at every MAC-output site;
  // the designed variant carries that component's profiled NM/NA there.
  const approx::Multiplier& mul = approx::multiplier_by_name(kServeComponent);
  approx::ProfileConfig pc;
  pc.samples = 20000;
  pc.chain_length = 81;  // CapsNet's 9x9 kernels.
  pc.seed = 7;
  const approx::ErrorProfile prof =
      approx::profile_multiplier(mul, approx::InputDistribution::uniform(), pc);
  core::DeploymentManifest& m = s.manifest;
  m.model = caps->name();
  m.profile = "tiny";
  m.input_hw = 28;
  m.input_channels = 1;
  m.num_classes = 10;
  m.noise_seed = 2020;
  const Tensor probe = capsnet::slice_rows(s.mnist.test_x, 0, 1);
  for (const core::Site& site : core::extract_sites(*caps, probe)) {
    core::ManifestSite ms;
    ms.site = site;
    if (site.kind == capsnet::OpKind::kMacOutput) {
      ms.component = kServeComponent;
      ms.nm = prof.nm;
      ms.na = prof.na;
    }
    m.sites.push_back(ms);
  }
  s.capsnet = caps.get();
  s.registry = std::make_unique<serve::ModelRegistry>(std::move(caps), m);
  return s;
}

ManifestBackends manifest_backends(const core::DeploymentManifest& m) {
  ManifestBackends b;
  for (const core::ManifestSite& site : m.sites) {
    const noise::NoiseSpec spec{site.nm, site.na};
    if (!spec.is_zero()) {
      b.rules.push_back(noise::layer_rule(site.site.kind, site.site.layer, spec));
    }
    // An unknown component falls back to the exact multiplier, as
    // ModelRegistry does for the emulated variant it serves.
    if (site.site.kind == capsnet::OpKind::kMacOutput &&
        !b.plan.set_by_name(site.site.layer, site.component)) {
      b.plan.set(site.site.layer, backend::SiteUnit{});
    }
  }
  return b;
}

}  // namespace perfbench
