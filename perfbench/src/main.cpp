// redcane_perf — the repository benchmark's program. perfbench/run.py
// builds and drives it; see perfbench/README.md for the workloads, the
// metrics and how to read a traced run.
//
//   redcane_perf --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints `fingerprint {...}`, `info {...}` and `checks {...}` lines, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"} with every metric the run measured.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "obs/trace.hpp"
#include "perf.hpp"
#include "quant/lut_cache.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: redcane_perf --workload design-capsnet|sweep-deepcaps|serve-open "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Plan plan;
  std::string workload;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      plan.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      plan.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      plan.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      plan.trace_out = value;
    } else {
      return usage();
    }
  }
  if (workload == "design-capsnet") {
    plan.design_full = true;
  } else if (workload == "sweep-deepcaps") {
    plan.sweep_full = true;
    // 64 images in each of the kSweepInstances instances: 3.3x
    // bench_sweep's 96 images, a multi-second repetition.
    plan.deepcaps_test = 64;
  } else if (workload == "serve-open") {
    plan.serve_full = true;
  } else {
    return usage();
  }
  if (plan.seconds <= 0.0) return usage();

  std::printf("fingerprint %s\n", fingerprint_json(kSweepThreads, kServeWorkers).c_str());
  Report r;
  double steal0 = 0.0;
  const double cpu0 = host_cpu_jiffies(&steal0);

  // The first set-up feeds the phases; the next ones only time set-up and
  // run one per later round, spread over the run like every other phase's
  // repetitions. The traced run reports no set-up time and sets up once.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    Setup cur = make_setup(plan);
    setup_s.push_back(ms_since(t0) / 1e3);
    return cur;
  };
  Setup s = set_up();
  // Wall time of each phase, repetitions and checks included: where the
  // run's own time goes.
  std::map<std::string, double> wall_s{{"setup", setup_s.front()}};
  const auto timed = [&wall_s](const std::string& name, const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    wall_s[name] += ms_since(t0) / 1e3;
  };

  std::optional<TraceCapture> trace;
  if (plan.trace) {
    trace.emplace();
    redcane::quant::lut_cache_reset_stats();
  }
  std::vector<std::pair<const char*, std::unique_ptr<Phase>>> phases;
  phases.emplace_back("serve", make_serve_phase(s, plan, r));
  phases.emplace_back("sweep", make_sweep_phase(s, plan));
  phases.emplace_back("design", make_design_phase(s, plan));
  // Serving latency moves with the host from one second to the next, so
  // its reference run comes in two chunks per round, on either side of
  // the sweep.
  const int round_order[] = {0, 1, 0, 2};
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0 && !plan.trace) timed("setup", [&] { (void)set_up(); });
    for (const int p : round_order) {
      timed(phases[p].first, [&] { phases[p].second->rep(round); });
    }
  }
  r.metric("setup_s", median(setup_s), "s");
  for (auto& [name, phase] : phases) timed(name, [&] { phase->finish(r); });
  if (plan.trace) timed("layer_probes", [&] { run_layer_probes(s, r); });
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  // CPU time the hypervisor gave to other guests during the run: the usual
  // reason one run reads slower than its neighbours on a shared host.
  double steal1 = 0.0;
  const double cpu1 = host_cpu_jiffies(&steal1);
  r.info("host.steal_pct", cpu1 > cpu0 ? 100.0 * (steal1 - steal0) / (cpu1 - cpu0) : 0.0);

  if (trace.has_value()) {
    const redcane::quant::LutCacheStats lut = redcane::quant::lut_cache_stats();
    r.metric("quant.lut_cache_hit_rate", lut.hit_rate(), "ratio");
    r.metric("quant.lut_cache_entries", static_cast<double>(lut.entries), "count");
    timed("trace_export", [&] {
      r.info("obs.trace_events", static_cast<double>(trace->finish(plan.trace_out)));
    });
    r.metric("obs.trace_dropped", static_cast<double>(redcane::obs::trace_dropped()), "count");
  }
  for (const auto& [name, secs] : wall_s) r.info("wall_s." + name, secs);
  std::printf("info %s\n", r.info_json().c_str());
  std::printf("checks %s\n", r.checks_json().c_str());
  std::printf("%s\n", r.result_json().c_str());
  return 0;
}
