// Shared infrastructure of the reproduction benches: the five paper
// benchmarks (model x dataset pairs of Table II), trained-model caching,
// and fixed-width table printing.
//
// Resilience sweeps run the `tiny()` model profiles: the
// 18-layer DeepCaps / 3-layer CapsNet topologies with every injection
// site intact, at a channel count a pure-CPU sweep can afford.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "capsnet/trainer.hpp"
#include "data/synthetic.hpp"

namespace redcane::bench {

/// One paper benchmark: a model architecture trained on a dataset.
struct Benchmark {
  std::string id;  ///< e.g. "deepcaps_cifar10".
  std::unique_ptr<capsnet::CapsModel> model;
  data::Dataset dataset;
};

enum class BenchmarkId {
  kDeepCapsCifar10,
  kDeepCapsSvhn,
  kDeepCapsMnist,
  kCapsNetFashionMnist,
  kCapsNetMnist,
};

/// All five rows of the paper's Table II, in table order.
inline std::vector<BenchmarkId> all_benchmarks() {
  return {BenchmarkId::kDeepCapsCifar10, BenchmarkId::kDeepCapsSvhn,
          BenchmarkId::kDeepCapsMnist, BenchmarkId::kCapsNetFashionMnist,
          BenchmarkId::kCapsNetMnist};
}

/// Builds the benchmark's tiny-profile model and synthetic dataset, then
/// either loads cached trained parameters from `.bench_cache/` or trains
/// and caches them. Deterministic per benchmark id.
Benchmark load_benchmark(BenchmarkId id);

/// Paper Table II reference accuracies (percent).
double paper_accuracy(BenchmarkId id);

const char* benchmark_name(BenchmarkId id);     ///< e.g. "DeepCaps / CIFAR-10".
const char* benchmark_model_name(BenchmarkId id);
const char* benchmark_dataset_name(BenchmarkId id);

/// Prints a horizontal rule and a centered title.
void print_header(const std::string& title);

/// Field list for one bench-result JSON line. Keys must be plain
/// identifiers (no escaping is applied); string values are escaped.
class JsonFields {
 public:
  JsonFields& str(const char* key, const std::string& value);
  JsonFields& boolean(const char* key, bool value);
  JsonFields& integer(const char* key, std::int64_t value);
  /// `fmt` is a printf double format (default keeps full precision short).
  JsonFields& number(const char* key, double value, const char* fmt = "%.6g");

  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

/// Appends one line to `path` in the shared bench schema:
///   {"bench":"<bench>","run_kind":"seed"|"ci",<fields>}
/// `run_kind` comes from $REDCANE_BENCH_RUN_KIND ("seed" unless set) so CI
/// smoke rows are distinguishable from seeded baselines in the same file.
/// Returns false (after a warning) when the file cannot be opened.
bool append_bench_json(const std::string& path, const std::string& bench,
                       const JsonFields& fields);

}  // namespace redcane::bench
