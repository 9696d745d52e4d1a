// Statistics, JSON output, machine fingerprint and trace capture of the
// repository benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/trace.hpp"
#include "perf.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/microkernel.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double low_quartile(std::vector<double> v) { return percentile(std::move(v), 25.0); }

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t trim = v.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::info(const std::string& name, double value) {
  info_.emplace_back(name, json_num(value));
}

void Report::info(const std::string& name, const std::string& value) {
  info_.emplace_back(name, json_str(value));
}

void Report::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check FAILED: %s\n", name.c_str());
  }
}

void Report::ops(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::result_json() const {
  bool all_checks = !checks_.empty();
  for (const auto& [name, ok] : checks_) all_checks = all_checks && ok;
  std::string m;
  for (const auto& [name, metric] : metrics_) {
    if (!m.empty()) m += ", ";
    m += json_str(name) + ": {\"value\": " + json_num(metric.value) +
         ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return std::string("{\"correct\": ") + (all_checks && failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1)) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" + m + "}}";
}

std::string Report::info_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(info_[i].first) + ": " + info_[i].second;
  }
  return out + "}";
}

std::string Report::checks_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(checks_[i].first) + ": " + (checks_[i].second ? "true" : "false");
  }
  return out + "}";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(int sweep_threads, int serve_workers) {
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  return "{\"cpu\": " + json_str(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"gemm_tier\": " + json_str(redcane::gemm::mk::active().name) +
         ", \"lut_tier\": " + json_str(redcane::gemm::lk::active().name) +
         ", \"compiler\": " + json_str(PERF_COMPILER) +
         ", \"build_type\": " + json_str(PERF_BUILD_TYPE) +
         ", \"omp_threads\": " + std::to_string(omp_threads) +
         ", \"sweep_threads\": " + std::to_string(sweep_threads) +
         ", \"serve_workers\": " + std::to_string(serve_workers) + "}";
}

double host_cpu_jiffies(double* steal) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  *steal = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    total += v;
    if (field == 7) *steal = v;
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

void single_threaded_kernels() {
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
}

// ------------------------------------------------------------ tracing

struct TraceCapture::Impl {
  std::vector<redcane::obs::TraceEvent> events;
  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;
  std::thread drainer;

  void drain() {
    std::vector<redcane::obs::TraceEvent> batch = redcane::obs::trace_drain();
    events.insert(events.end(), batch.begin(), batch.end());
  }

  /// Stops the drainer (once) and disarms tracing.
  void stop() {
    if (drainer.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        stop_requested = true;
      }
      cv.notify_all();
      drainer.join();
    }
    redcane::obs::trace_arm(false);
  }
};

TraceCapture::TraceCapture() : impl_(std::make_unique<Impl>()) {
  redcane::obs::trace_arm(true);
  // Rings hold 4096 events per thread; the serving generator alone emits
  // thousands per second, so drain well before any ring can wrap.
  impl_->drainer = std::thread([impl = impl_.get()] {
    std::unique_lock<std::mutex> lock(impl->mu);
    while (!impl->stop_requested) {
      impl->cv.wait_for(lock, std::chrono::milliseconds(20));
      impl->drain();
    }
  });
}

TraceCapture::~TraceCapture() { impl_->stop(); }

std::size_t TraceCapture::finish(const std::string& path) {
  impl_->stop();
  impl_->drain();
  auto& ev = impl_->events;
  std::stable_sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // Parents before children.
  });

  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
      for (std::size_t i = 0; i < ev.size(); ++i) {
        std::fprintf(f,
                     "%s{\"name\": %s, \"ph\": \"X\", \"ts\": %llu, \"dur\": %llu, "
                     "\"pid\": %u, \"tid\": %u, \"args\": {\"corr\": %llu}}\n",
                     i == 0 ? "" : ",", json_str(ev[i].name).c_str(),
                     static_cast<unsigned long long>(ev[i].ts_us),
                     static_cast<unsigned long long>(ev[i].dur_us), ev[i].pid, ev[i].tid,
                     static_cast<unsigned long long>(ev[i].corr));
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    }
  }

  // Self time per span name: a span's duration minus the part of it its
  // direct children on the same thread cover.
  struct Agg {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::unordered_map<std::string, Agg> agg;
  std::vector<std::pair<std::size_t, std::uint64_t>> stack;  // (event, child time)
  const auto close_top = [&] {
    const auto [i, child_us] = stack.back();
    stack.pop_back();
    Agg& a = agg[ev[i].name];
    ++a.count;
    a.total_ms += static_cast<double>(ev[i].dur_us) / 1e3;
    a.self_ms += static_cast<double>(ev[i].dur_us - std::min(child_us, ev[i].dur_us)) / 1e3;
  };
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) {
      while (!stack.empty()) close_top();
    }
    while (!stack.empty()) {
      const auto& top = ev[stack.back().first];
      if (ev[i].ts_us < top.ts_us + top.dur_us) break;
      close_top();
    }
    if (!stack.empty()) stack.back().second += ev[i].dur_us;
    stack.emplace_back(i, 0);
  }
  while (!stack.empty()) close_top();

  std::vector<std::pair<std::string, Agg>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  std::printf("trace self time (%zu events):\n  %-44s %8s %12s %12s\n", ev.size(), "span",
              "count", "total_ms", "self_ms");
  for (const auto& [name, a] : rows) {
    std::printf("  %-44s %8lld %12.2f %12.2f\n", name.c_str(),
                static_cast<long long>(a.count), a.total_ms, a.self_ms);
  }
  return ev.size();
}

}  // namespace perfbench
