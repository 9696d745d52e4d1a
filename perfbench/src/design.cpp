// Design phase: the redcane_full_flow recipe — Steps 1-6 (run_redcane with
// the paper NM grid and 81-MAC profiling chains), Step 7
// (cross_validate_design) and Step 8 (analyze_robustness) on the trained
// CapsNet-tiny.
//
// The traced run also re-runs Steps 1-8 as the public calls run_redcane is
// made of, in its order, each inside a span, and requires the composed
// selections to equal run_redcane's.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "backend/backend.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "core/methodology.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"
#include "quant/lut_cache.hpp"

namespace perfbench {

using namespace redcane;

namespace {

/// The design's test split: all 250 images at full size, the first 64 at
/// smoke size.
struct TestSet {
  Tensor x;
  std::vector<std::int64_t> y;
};

TestSet design_test_set(const Setup& s, bool full) {
  const std::int64_t n = full ? kCapsTest : 64;
  return {capsnet::slice_rows(s.mnist.test_x, 0, n),
          std::vector<std::int64_t>(s.mnist.test_y.begin(), s.mnist.test_y.begin() + n)};
}

core::MethodologyConfig methodology_config(bool full) {
  core::MethodologyConfig mc;
  mc.resilience.seed = 2020;
  mc.resilience.threads = kSweepThreads;
  mc.profile_chain_length = 81;  // CapsNet uses 9x9 kernels.
  if (!full) {
    // The redcane_serve --smoke NM grid, with half its profiling samples.
    mc.resilience.sweep.nms = {0.5, 0.05, 0.005, 0.0};
    mc.profile_samples = 2000;
  }
  return mc;
}

core::CrossValidateConfig cross_validate_config() {
  core::CrossValidateConfig cv;
  cv.seed = 2020;
  cv.threads = kSweepThreads;
  return cv;
}

/// Step 8 as redcane_full_flow runs it: FGSM and rotation grids over a
/// reduced NM axis plus one emulated component, the first MAC selection's.
core::RobustnessConfig robustness_config(const core::MethodologyResult& design) {
  core::RobustnessConfig rc;
  attack::Scenario fgsm;
  fgsm.kind = attack::AttackKind::kFgsm;
  fgsm.severities = {0.05, 0.1};
  attack::Scenario rotate;
  rotate.kind = attack::AttackKind::kRotate;
  rotate.severities = {10.0, 25.0};
  rc.scenarios = {fgsm, rotate};
  for (const core::SiteSelection& sel : design.selections) {
    if (sel.site.kind == capsnet::OpKind::kMacOutput && sel.component != nullptr) {
      rc.emulated_components = {sel.component->info().name};
      break;
    }
  }
  return rc;
}

core::ResilienceConfig robustness_resilience(const core::MethodologyConfig& mc) {
  core::ResilienceConfig rcfg = mc.resilience;
  rcfg.sweep.nms = {0.1, 0.05, 0.01, 0.0};
  return rcfg;
}

/// One untimed-structure design run: Steps 1-6, 7 and 8.
core::MethodologyResult design_once(Setup& s, const TestSet& t, bool full) {
  const core::MethodologyConfig mc = methodology_config(full);
  core::MethodologyResult r =
      core::run_redcane(*s.capsnet, t.x, t.y, s.mnist.name, mc);
  r.cross_validation =
      core::cross_validate_design(*s.capsnet, t.x, t.y, r, cross_validate_config());
  r.has_cross_validation = true;
  r.robustness = core::analyze_robustness(*s.capsnet, t.x, t.y, robustness_config(r),
                                          robustness_resilience(mc));
  r.has_robustness = true;
  return r;
}

/// |drop| of `curve` at the grid point closest to `nm` (run_redcane's
/// marking rule for Steps 3 and 5).
double drop_at(const core::ResilienceCurve& curve, double nm) {
  double best = 1e18;
  double drop = 0.0;
  for (std::size_t i = 0; i < curve.nms.size(); ++i) {
    const double d = std::abs(curve.nms[i] - nm);
    if (d < best) {
      best = d;
      drop = curve.drop_pct[i];
    }
  }
  return std::abs(drop);
}

/// Steps 1-8 composed from their public calls in run_redcane's order, each
/// inside a span, with per-step wall times written to `r`.
core::MethodologyResult design_composed(Setup& s, const TestSet& t, bool full, Report& r) {
  const core::MethodologyConfig mc = methodology_config(full);
  core::MethodologyResult d;
  d.model_name = s.capsnet->name();
  d.dataset_name = s.mnist.name;
  capsnet::CapsModel& model = *s.capsnet;

  auto t0 = Clock::now();
  {
    OBS_SPAN("step1.extract");
    d.sites = core::extract_sites(model, capsnet::slice_rows(t.x, 0, 1));
  }
  r.metric("step1.extract_ms", ms_since(t0), "ms");

  core::ResilienceAnalyzer analyzer(model, t.x, t.y, mc.resilience);
  {
    OBS_SPAN("design.baseline");
    d.baseline_accuracy = analyzer.baseline();
  }

  t0 = Clock::now();
  {
    OBS_SPAN("step2.group_sweeps");
    for (capsnet::OpKind kind : core::all_groups()) {
      OBS_SPAN("core.sweep_group");
      d.group_curves.push_back(analyzer.sweep_group(kind));
    }
  }
  r.metric("step2.group_sweep_ms", ms_since(t0), "ms");

  for (std::size_t g = 0; g < d.group_curves.size(); ++g) {
    const bool resilient = drop_at(d.group_curves[g], mc.mark_nm) <= mc.mark_threshold_pct;
    (resilient ? d.resilient_groups : d.non_resilient_groups).push_back(core::all_groups()[g]);
  }

  t0 = Clock::now();
  {
    OBS_SPAN("step4.layer_sweeps");
    for (capsnet::OpKind kind : d.non_resilient_groups) {
      for (const std::string& layer : core::layers_of_group(d.sites, kind)) {
        OBS_SPAN("core.sweep_layer");
        d.layer_curves.push_back(analyzer.sweep_layer(kind, layer));
      }
    }
  }
  r.metric("step4.layer_sweep_ms", ms_since(t0), "ms");

  for (const core::ResilienceCurve& curve : d.layer_curves) {
    if (drop_at(curve, mc.mark_nm) <= mc.mark_threshold_pct) {
      d.resilient_layers.push_back(*curve.layer + "/" + capsnet::op_kind_name(curve.kind));
    }
  }

  t0 = Clock::now();
  {
    OBS_SPAN("step6.profile_select");
    d.profiled = core::profile_library(approx::InputDistribution::uniform(),
                                       mc.profile_chain_length, mc.profile_samples,
                                       mc.profile_seed);
    for (const core::Site& site : d.sites) {
      const core::ResilienceCurve* curve = nullptr;
      for (const core::ResilienceCurve& lc : d.layer_curves) {
        if (curve == nullptr && lc.kind == site.kind && lc.layer == site.layer) curve = &lc;
      }
      for (const core::ResilienceCurve& gc : d.group_curves) {
        if (curve == nullptr && gc.kind == site.kind) curve = &gc;
      }
      core::SiteSelection sel;
      sel.site = site;
      sel.tolerable_nm = curve != nullptr ? curve->tolerable_nm(mc.tolerance_pct) : 0.0;
      sel.component = core::select_component(d.profiled, sel.tolerable_nm);
      d.selections.push_back(sel);
    }
  }
  r.metric("step6.profile_ms", ms_since(t0), "ms");

  t0 = Clock::now();
  {
    OBS_SPAN("step7.cross_validate");
    d.cross_validation =
        core::cross_validate_design(model, t.x, t.y, d, cross_validate_config());
    d.has_cross_validation = true;
  }
  r.metric("step7.cross_validate_ms", ms_since(t0), "ms");

  t0 = Clock::now();
  {
    OBS_SPAN("step8.robustness");
    d.robustness = core::analyze_robustness(model, t.x, t.y, robustness_config(d),
                                            robustness_resilience(mc));
    d.has_robustness = true;
  }
  r.metric("step8.robustness_ms", ms_since(t0), "ms");
  return d;
}

bool same_selections(const core::MethodologyResult& a, const core::MethodologyResult& b) {
  if (a.selections.size() != b.selections.size()) return false;
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    const core::SiteSelection& x = a.selections[i];
    const core::SiteSelection& y = b.selections[i];
    if (!(x.site == y.site) || x.component != y.component ||
        x.tolerable_nm != y.tolerable_nm) {
      return false;
    }
  }
  return true;
}

/// Step 7's joint emulated accuracy recomputed directly: every MAC-output
/// selection emulated together through EmulatedBackend::run.
double direct_emulated_joint(Setup& s, const TestSet& t, const core::MethodologyResult& d) {
  backend::EmulationPlan plan;
  for (const core::SiteSelection& sel : d.selections) {
    if (sel.site.kind != capsnet::OpKind::kMacOutput || sel.component == nullptr) continue;
    plan.set(sel.site.layer, backend::SiteUnit{quant::MacUnit{sel.component, nullptr}, 8});
  }
  const backend::EmulatedBackend emulated(std::move(plan));
  const std::int64_t n = t.x.shape().dim(0);
  const std::int64_t batch = cross_validate_config().eval_batch;
  std::int64_t correct = 0;
  for (std::int64_t b = 0; b < n; b += batch) {
    const std::int64_t e = std::min(n, b + batch);
    const Tensor v = emulated.run(*s.capsnet, capsnet::slice_rows(t.x, b, e), 0);
    correct += capsnet::count_correct(
        v, std::span<const std::int64_t>(t.y.data() + b, static_cast<std::size_t>(e - b)));
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

class DesignPhase final : public Phase {
 public:
  DesignPhase(Setup& s, const Plan& plan)
      : s_(s), full_(plan.design_full), t_(design_test_set(s, full_)) {}

  /// A full-size design runs in the first and last rounds, so one burst of
  /// host contention cannot cover both; a smoke-size one every round.
  /// Repetitions run untraced, each from a cold LUT cache as a fresh
  /// process would: in the traced run they are the reference the traced
  /// composition is compared against.
  void rep(int round) override {
    if (full_ && round != 0 && round != kRounds - 1) return;
    const bool armed = obs::trace_armed();
    obs::trace_arm(false);
    quant::lut_cache_clear();
    const auto t0 = Clock::now();
    d_ = design_once(s_, t_, full_);
    secs_.push_back(ms_since(t0) / 1e3);
    obs::trace_arm(armed);
  }

  void finish(Report& r) override {
    const double design_s = low_quartile(secs_);
    r.metric("design_s", design_s, "s");
    r.ops(static_cast<std::int64_t>(secs_.size()), 0);
    r.info("design.size", full_ ? "full" : "smoke");
    r.info("design.rep_s", join(secs_));
    r.info("design.baseline_accuracy", d_.baseline_accuracy);
    r.info("design.mean_mac_power_saving", d_.mean_mac_power_saving());
    r.info("design.step7_predicted_joint", d_.cross_validation.predicted_joint);
    r.info("design.step7_emulated_joint", d_.cross_validation.emulated_joint);
    r.info("design.step7_max_abs_delta_pp", d_.cross_validation.max_abs_delta_pp());
    r.info("design.sweep_evaluations", static_cast<double>(d_.evaluations_run));
    r.check("design.step7_joint_equals_direct_emulation",
            d_.cross_validation.emulated_joint == direct_emulated_joint(s_, t_, d_));

    if (!obs::trace_armed()) return;
    // Traced: the same design, composed step by step inside spans. Its wall
    // time against the untraced design_s is the tracing overhead.
    quant::lut_cache_clear();
    const auto t0 = Clock::now();
    core::MethodologyResult composed;
    {
      OBS_SPAN("phase.design");
      composed = design_composed(s_, t_, full_, r);
    }
    const double traced_s = ms_since(t0) / 1e3;
    r.metric("obs.tracing_overhead_pct", (traced_s - design_s) / design_s * 100.0, "%");
    r.check("design.composed_selections_equal_run_redcane", same_selections(composed, d_));
    const core::SweepEngineStats& rs = composed.robustness.sweep_stats;
    r.metric("sweep.input_sets", static_cast<double>(rs.input_sets), "count");
    r.metric("sweep.input_hit_rate", rs.input_hit_rate(), "ratio");
  }

 private:
  Setup& s_;
  const bool full_;
  const TestSet t_;
  std::vector<double> secs_;
  core::MethodologyResult d_;  ///< Of the last repetition.
};

}  // namespace

std::unique_ptr<Phase> make_design_phase(Setup& s, const Plan& plan) {
  return std::make_unique<DesignPhase>(s, plan);
}

}  // namespace perfbench
