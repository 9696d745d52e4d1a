// Shared declarations of the repository benchmark (perfbench/README.md).
//
// One run executes three phases — serve (open-loop mixed-variant serving),
// sweep (the DeepCaps-tiny Step-2/4 grid) and design (Steps 1-8 on
// CapsNet-tiny) — in interleaved rounds, each repetition timed on its own
// and each phase reporting the lower quartile of its repetitions (serving:
// their trimmed mean). The
// workload picks which phase runs at full size; the other two run at
// smoke size, so every run still reports every end-to-end metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "core/manifest.hpp"
#include "data/dataset.hpp"
#include "serve/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile p in [0, 100] of `v` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Lower quartile (nearest rank) of repeated measurements of the same
/// work: the minimum of up to four. Contention from the host only ever
/// adds time, and on a shared VM it comes in bursts that can cover half a
/// run, so the low end of the repetitions is the cost of the code; a
/// quartile rather than the minimum keeps one lucky repetition out of it
/// once there are more than four.
[[nodiscard]] double low_quartile(std::vector<double> v);

/// Mean of `v` without its lowest and highest value (the plain mean of
/// fewer than three; 0 when empty). For serving figures, whose repeated
/// samples scatter both ways — with the host's placement of the worker
/// threads and with the random arrival mix — rather than only upwards: the
/// mean of the middle samples repeats better from run to run than any one
/// order statistic, and one burst of contention is trimmed away.
[[nodiscard]] double trimmed_mean(std::vector<double> v);

/// Named metrics (value + unit), informational fields and correctness
/// checks of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Informational field: printed, never compared.
  void info(const std::string& name, double value);
  void info(const std::string& name, const std::string& value);
  /// A correctness check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok);
  /// Operations attempted / failed outside the checks (requests, points).
  void ops(std::int64_t attempted, std::int64_t failed);

  /// {"correct", "attempted", "failed", "metrics"} over every metric
  /// measured; perfbench/run.py keeps the ones BENCHMARK.json names.
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::string info_json() const;
  [[nodiscard]] std::string checks_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  ///< name -> JSON value.
  std::vector<std::pair<std::string, bool>> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// JSON string literal of `s`.
[[nodiscard]] std::string json_str(const std::string& s);
/// JSON number with all significant digits (null for non-finite).
[[nodiscard]] std::string json_num(double v);
/// `v` as space-separated values with 3 decimals, for `info` fields.
[[nodiscard]] std::string join(const std::vector<double>& v);

/// CPU model, hardware threads, dispatch tiers, compiler, build type and
/// the thread counts this benchmark runs with, as a JSON object.
[[nodiscard]] std::string fingerprint_json(int sweep_threads, int serve_workers);

/// CPU time of the whole (virtual) machine so far [jiffies], from
/// /proc/stat; `steal` receives the part the hypervisor gave to other
/// guests. Both read 0 where /proc/stat is unavailable.
double host_cpu_jiffies(double* steal);

/// Peak resident set size of this process [MiB].
[[nodiscard]] double peak_rss_mb();

/// Caps OpenMP to one thread on the calling thread — the condition every
/// sweep worker and serving worker runs model code under.
void single_threaded_kernels();

// ---------------------------------------------------------------- sizes

inline constexpr int kSweepThreads = 4;   ///< Sweep-engine workers.
inline constexpr int kServeWorkers = 3;   ///< Serving workers (+1 generator).
inline constexpr int kRounds = 3;         ///< Rounds (and set-ups) per run.
inline constexpr int kSweepInstances = 5;  ///< Seeded DeepCaps-tiny + test split per sweep.
inline constexpr std::int64_t kCapsTrain = 1000;
inline constexpr std::int64_t kCapsTest = 250;
inline constexpr const char* kServeComponent = "axm_drum4_dm1";

/// Sizes of one run's phases: the workload's own phase at full size, the
/// others at smoke size.
struct Plan {
  bool design_full = false;
  bool sweep_full = false;
  bool serve_full = false;
  /// Test images per sweep instance; at least 32, the batch the stage
  /// probes of the traced run use.
  std::int64_t deepcaps_test = 32;
  double seconds = 8.0;               ///< --seconds: full-size serving reference length.
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;              ///< chrome://tracing JSON path ("" = none).
};

/// Everything the phases run on, built by one set-up.
struct Setup {
  redcane::data::Dataset mnist;  ///< 28x28, 1000 train / 250 test.
  redcane::core::DeploymentManifest manifest;  ///< Serving manifest.
  /// Serves the trained CapsNet-tiny; owns it.
  std::unique_ptr<redcane::serve::ModelRegistry> registry;
  redcane::capsnet::CapsNetModel* capsnet = nullptr;  ///< The registry's model.
  /// One sweep instance: a seeded, untrained DeepCaps-tiny and its own
  /// generated 16x16x3 test split.
  struct SweepInstance {
    redcane::data::Dataset cifar;  ///< Test split only.
    std::unique_ptr<redcane::capsnet::DeepCapsModel> model;
  };
  /// kSweepInstances sweep instances; every sweep repetition runs the grid
  /// on each. The grid's cost depends on the seeds — activations of some
  /// run into subnormal floats, which slow it by up to 35% — so summing
  /// over several independently seeded instances keeps that cost in every
  /// repetition while one unlucky seed cannot set the run's figure.
  std::vector<SweepInstance> deepcaps;
};

/// Generates the datasets from `plan.seed`, trains CapsNet-tiny, builds the
/// DeepCaps models, the serving manifest and the registry serving it.
[[nodiscard]] Setup make_setup(const Plan& plan);

/// The serving manifest's designed-variant noise rules and emulated-variant
/// plan, as serve::ModelRegistry builds its variants from a manifest. Only
/// the stage probes use these, since they drive the model stage by stage;
/// whole micro-batches are timed through ModelRegistry::run itself.
struct ManifestBackends {
  std::vector<redcane::noise::InjectionRule> rules;
  redcane::backend::EmulationPlan plan;
};
[[nodiscard]] ManifestBackends manifest_backends(const redcane::core::DeploymentManifest& m);

// ---------------------------------------------------------------- phases

/// One measured phase. A run interleaves the phases in kRounds rounds —
/// up to one repetition of each per round, two serving chunks — so a burst
/// of host contention lasting a few seconds slows one repetition of each
/// phase, not all of them, and the phase's figure stays clean. finish()
/// then runs the phase's once-per-run parts (checks, traced extras) and
/// writes its metrics into the report.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void rep(int round) = 0;
  virtual void finish(Report& r) = 0;
};

/// Open-loop serving (serve.cpp). Traced: measures backend service times.
[[nodiscard]] std::unique_ptr<Phase> make_serve_phase(Setup& s, const Plan& plan, Report& r);
/// The DeepCaps Step-2/4 sweep grid (sweep.cpp).
[[nodiscard]] std::unique_ptr<Phase> make_sweep_phase(Setup& s, const Plan& plan);
/// Steps 1-8 on CapsNet-tiny (design.cpp).
[[nodiscard]] std::unique_ptr<Phase> make_design_phase(Setup& s, const Plan& plan);

/// Traced run only: per-stage, backend, kernel, approx and attack probes.
void run_layer_probes(Setup& s, Report& r);

/// Traced run only: keeps span rings drained into memory while armed, then
/// writes chrome://tracing JSON and the per-span self-time table.
class TraceCapture {
 public:
  TraceCapture();
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Stops draining, writes `path` (when non-empty), prints the self-time
  /// table to stdout, and returns the number of events kept.
  std::size_t finish(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
