// Sweep phase: bench_sweep's fixed grid — Step 2 over the four groups plus
// Step 4 over every layer of the MAC-output and activation groups, 40
// sweeps x 9 noisy points — on each of kSweepInstances seeded, untrained
// DeepCaps-tiny at 16x16x3 with its own test split, through
// ResilienceAnalyzer with 4 workers and eval batch 32. One repetition runs
// the grid on every instance.
// The grid is fixed, so its point count does not depend on accuracy, and
// untrained weights cost the same as trained ones.
#include <optional>

#include "core/groups.hpp"
#include "core/resilience.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"

namespace perfbench {

using namespace redcane;

namespace {

struct SweepJob {
  capsnet::OpKind kind;
  std::optional<std::string> layer;
};

std::vector<SweepJob> grid_jobs(const capsnet::CapsModel& model) {
  std::vector<SweepJob> jobs;
  for (capsnet::OpKind kind : core::all_groups()) jobs.push_back({kind, std::nullopt});
  for (capsnet::OpKind kind : {capsnet::OpKind::kMacOutput, capsnet::OpKind::kActivation}) {
    for (const std::string& layer : model.layer_names()) jobs.push_back({kind, layer});
  }
  return jobs;
}

core::ResilienceConfig sweep_config(int threads) {
  core::ResilienceConfig cfg;
  cfg.seed = 2020;
  cfg.eval_batch = 32;
  cfg.threads = threads;
  return cfg;
}

core::ResilienceCurve run_job(core::ResilienceAnalyzer& a, const SweepJob& job) {
  if (job.layer.has_value()) {
    OBS_SPAN("core.sweep_layer");
    return a.sweep_layer(job.kind, *job.layer);
  }
  OBS_SPAN("core.sweep_group");
  return a.sweep_group(job.kind);
}

class SweepPhase final : public Phase {
 public:
  SweepPhase(Setup& s, const Plan& plan)
      : s_(s),
        plan_(plan),
        jobs_(grid_jobs(*s.deepcaps.front().model)),
        cfg_(sweep_config(kSweepThreads)) {}

  /// The grid on every instance, timed as a whole.
  void rep(int /*round*/) override {
    OBS_SPAN("phase.sweep");
    const auto t0 = Clock::now();
    for (const Setup::SweepInstance& in : s_.deepcaps) {
      const auto m0 = Clock::now();
      core::ResilienceAnalyzer analyzer(*in.model, in.cifar.test_x, in.cifar.test_y, cfg_);
      {
        OBS_SPAN("sweep.record");
        (void)analyzer.baseline();  // The recording pass that seeds the prefix cache.
      }
      record_ms_.push_back(ms_since(m0));
      curves_.clear();
      for (const SweepJob& job : jobs_) curves_.push_back(run_job(analyzer, job));
      stats_ = analyzer.engine_stats();
    }
    secs_.push_back(ms_since(t0) / 1e3);
  }

  void finish(Report& r) override {
    // Every sweep's NM = 0 point is free: it reuses the clean accuracy.
    const std::int64_t points = static_cast<std::int64_t>(jobs_.size()) *
                                static_cast<std::int64_t>(cfg_.sweep.nms.size() - 1);
    const std::int64_t rep_points = points * static_cast<std::int64_t>(s_.deepcaps.size());
    const double sweep_s = low_quartile(secs_);
    r.metric("sweep_points_per_s", static_cast<double>(rep_points) / sweep_s, "1/s");
    r.ops(rep_points * static_cast<std::int64_t>(secs_.size()), 0);
    r.info("sweep.size", plan_.sweep_full ? "full" : "smoke");
    r.info("sweep.test_images",
           static_cast<double>(s_.deepcaps.front().cifar.test_x.shape().dim(0)));
    r.info("sweep.rep_s", join(secs_));

    // Correctness: a fixed subset of sweeps recomputed on one worker must
    // be bit-identical to the parallel engine's curves.
    {
      OBS_SPAN("sweep.verify_serial");
      const Setup::SweepInstance& last = s_.deepcaps.back();
      core::ResilienceAnalyzer serial(*last.model, last.cifar.test_x, last.cifar.test_y,
                                      sweep_config(1));
      bool identical = true;
      for (const std::size_t i : {std::size_t{0}, jobs_.size() / 2, jobs_.size() - 1}) {
        identical = identical && run_job(serial, jobs_[i]).drop_pct == curves_[i].drop_pct;
      }
      r.check("sweep.curves_equal_one_thread_recompute", identical);
    }

    if (!plan_.trace) return;
    r.metric("sweep.record_ms", median(record_ms_), "ms");
    r.metric("sweep.points", static_cast<double>(points), "count");
    r.metric("sweep.evaluations", static_cast<double>(stats_.evaluations), "count");
    r.metric("sweep.cache_hits", static_cast<double>(stats_.cache_hits), "count");
    r.metric("sweep.stage_skip_fraction", stats_.skip_fraction(), "ratio");
    r.metric("sweep.ms_per_point", sweep_s * 1e3 / static_cast<double>(rep_points), "ms");
  }

 private:
  Setup& s_;
  const Plan& plan_;
  const std::vector<SweepJob> jobs_;
  const core::ResilienceConfig cfg_;
  std::vector<double> secs_;
  std::vector<double> record_ms_;              ///< Per instance and repetition.
  std::vector<core::ResilienceCurve> curves_;  ///< Of the last instance's last grid.
  core::SweepEngineStats stats_;               ///< Of the last instance's last grid.
};

}  // namespace

std::unique_ptr<Phase> make_sweep_phase(Setup& s, const Plan& plan) {
  return std::make_unique<SweepPhase>(s, plan);
}

}  // namespace perfbench
