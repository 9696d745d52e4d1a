// Serve phase: open-loop serving of the trained CapsNet-tiny through
// InferenceServer. Requests arrive on a fixed schedule from one generator
// thread whatever the server does, as from independent users; each picks
// its variant i.i.d. (exact / designed / emulated, 1/3 each) and a test
// image uniformly. Latency is timed from the request's due time, so a
// generator or server stall is charged to every request it delays, and a
// failed request counts as an infinite latency.
//
// Latency is taken per window of 1000 consecutive requests — the fewest
// for which a pooled p99 has ten samples beyond it — and reported as the
// trimmed mean over windows (trimmed_mean): a burst of host contention
// then spoils the window it covers instead of setting the run's figure.
//
// The reference run at 1000 req/s, two chunks per round, gives per-variant
// p50 and the pooled p99. serve_max_rps is the rate the server sustains
// once saturated: each chunk is followed by a drain, 1500 requests
// submitted at once, whose completion rate is the highest rate at which no
// backlog builds up (ServePhase::finish).
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <random>
#include <thread>

#include "capsnet/trainer.hpp"
#include "obs/trace.hpp"
#include "perf.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace redcane;

namespace {

constexpr double kReferenceRate = 1000.0;  ///< [req/s]
constexpr std::int64_t kWindow = 1000;     ///< Requests per tail-latency window.
/// Requests of one drain: about 0.7 s of service.
constexpr std::int64_t kDrainRequests = 1500;
/// A reference chunk run while the hypervisor gave more than this share of
/// the machine's CPU time [%] to other guests measured the host: on a
/// shared 4-vCPU VM, 5-18% steal doubled p50 and p99 of the
/// windows it covered, while windows a second later read as on a quiet
/// host. Such a chunk is run again, up to kStealRetries times per run.
constexpr double kMaxStealPct = 3.0;
constexpr int kStealRetries = 2;
constexpr const char* kVariants[3] = {serve::kVariantExact, serve::kVariantDesigned,
                                      serve::kVariantEmulated};

/// Direct CapsModel::infer class-capsule lengths of one test image.
std::vector<float> direct_scores(capsnet::CapsModel& model, const Tensor& x, std::int64_t i) {
  const Tensor v = model.infer(capsnet::slice_rows(x, i, i + 1));
  const Tensor len = capsnet::CapsModel::class_lengths(v);
  return {len.data().begin(), len.data().end()};
}

/// ExecBackend::run wall time per micro-batch size, for the queue-wait
/// split: latency minus the service time of the batch a request rode in.
struct ServiceTable {
  double ms[3][3] = {};  ///< [variant][b1, b8, b16]

  [[nodiscard]] double at(int variant, std::int64_t batch) const {
    const double* m = ms[variant];
    if (batch <= 1) return m[0];
    if (batch <= 8) return m[0] + (m[1] - m[0]) * static_cast<double>(batch - 1) / 7.0;
    const auto above = static_cast<double>(std::min<std::int64_t>(batch, 16) - 8);
    return m[1] + (m[2] - m[1]) * above / 8.0;
  }
};

/// One open-loop run at a fixed rate, in request order.
struct Run {
  std::vector<int> variant;         ///< Per request.
  std::vector<double> latency_ms;   ///< Per request, from due time; +inf if failed.
  std::vector<double> lag_ms;       ///< Generator lateness at submit.
  std::vector<double> submit_us;    ///< submit() call duration.
  std::vector<double> queue_wait_ms;
  std::int64_t failed = 0;
  std::int64_t served[3] = {};
  std::int64_t correct[3] = {};
  std::int64_t exact_mismatch = 0;  ///< Exact predictions != direct infer.
  serve::ServerStats stats;

  /// Pooled p99 of each consecutive kWindow-request window.
  [[nodiscard]] std::vector<double> window_p99s() const {
    std::vector<double> p99s;
    for (std::size_t b = 0; b + kWindow <= latency_ms.size(); b += kWindow) {
      const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(b);
      p99s.push_back(percentile(std::vector<double>(first, first + kWindow), 99.0));
    }
    return p99s;
  }
  /// p50 of variant `v`'s served requests in each kWindow-request window.
  [[nodiscard]] std::vector<double> window_p50s(int v) const {
    std::vector<double> p50s;
    for (std::size_t b = 0; b + kWindow <= latency_ms.size(); b += kWindow) {
      std::vector<double> lat;
      for (std::size_t i = b; i < b + kWindow; ++i) {
        if (variant[i] == v && std::isfinite(latency_ms[i])) lat.push_back(latency_ms[i]);
      }
      p50s.push_back(percentile(std::move(lat), 50.0));
    }
    return p50s;
  }
  [[nodiscard]] std::vector<double> variant_latencies(int v) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      if (variant[i] == v && std::isfinite(latency_ms[i])) out.push_back(latency_ms[i]);
    }
    return out;
  }
};

struct Traffic {
  serve::ModelRegistry& registry;
  const Tensor& test_x;
  const std::vector<std::int64_t>& test_y;
  const std::vector<std::vector<float>>& exact_ref;
  const ServiceTable* service;  ///< Null outside the traced run.
};

/// `n` requests due at `rate` [req/s]; all due at once when `rate` is
/// infinite.
Run run_open_loop(const Traffic& t, double rate, std::int64_t n, std::uint64_t seed) {
  OBS_SPAN("serve.open_loop");
  serve::ServerConfig sc;
  sc.workers = kServeWorkers;
  sc.max_batch = 16;
  sc.max_delay_us = 2000;
  serve::InferenceServer server(t.registry, sc);
  server.start();

  const std::int64_t images = t.test_x.shape().dim(0);
  std::mt19937_64 rng(seed);
  struct Sent {
    std::future<serve::ServeResult> fut;
    Clock::time_point due;
    Clock::time_point sent;
    std::int64_t image;
    int variant;
  };
  std::vector<Sent> sent;
  sent.reserve(static_cast<std::size_t>(n));
  // Inputs are drawn before the clock starts: the schedule is the only
  // thing the generator does while it runs.
  std::vector<std::pair<std::int64_t, int>> draws(static_cast<std::size_t>(n));
  std::vector<Tensor> samples(static_cast<std::size_t>(images));
  for (std::int64_t i = 0; i < images; ++i) {
    samples[static_cast<std::size_t>(i)] = capsnet::slice_rows(t.test_x, i, i + 1);
  }
  for (auto& [image, variant] : draws) {
    variant = static_cast<int>(rng() % 3);
    image = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(images));
  }

  Run w;
  w.submit_us.reserve(static_cast<std::size_t>(n));
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                              static_cast<double>(i) * 1e9 / rate));
    std::this_thread::sleep_until(due);
    const auto [image, variant] = draws[static_cast<std::size_t>(i)];
    const auto before = Clock::now();
    std::future<serve::ServeResult> fut =
        server.submit(samples[static_cast<std::size_t>(image)], kVariants[variant]);
    w.submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - before).count());
    sent.push_back({std::move(fut), due, before, image, variant});
  }

  for (Sent& s : sent) {
    const double lag_ms = std::chrono::duration<double, std::milli>(s.sent - s.due).count();
    w.variant.push_back(s.variant);
    w.lag_ms.push_back(lag_ms);
    w.latency_ms.push_back(std::numeric_limits<double>::infinity());
    const bool resolved = s.fut.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
    const serve::ServeResult res = resolved ? s.fut.get() : serve::ServeResult{};
    if (!resolved || !res.ok()) {
      ++w.failed;
      continue;
    }
    const serve::Prediction& p = res.prediction;
    const double lat_ms = lag_ms + p.latency_us / 1e3;
    w.latency_ms.back() = lat_ms;
    ++w.served[s.variant];
    if (t.service != nullptr) {
      w.queue_wait_ms.push_back(lat_ms - t.service->at(s.variant, p.batch_size));
    }
    if (p.label == t.test_y[static_cast<std::size_t>(s.image)]) ++w.correct[s.variant];
    if (s.variant == 0 && p.scores != t.exact_ref[static_cast<std::size_t>(s.image)]) {
      ++w.exact_mismatch;
    }
  }
  server.shutdown();
  w.stats = server.stats();
  return w;
}

/// Completion rate [req/s] of a drain: the requests completed between
/// the 10th and the 90th percentile completion, over the time between
/// them, so the start-up of the workers and the last batches' tail are
/// left out. All requests were due at once, so latency is completion time.
double drain_rate(const Run& w) {
  std::vector<double> done = w.latency_ms;
  std::sort(done.begin(), done.end());
  const auto served = static_cast<std::size_t>(
      std::count_if(done.begin(), done.end(), [](double v) { return std::isfinite(v); }));
  const std::size_t a = served / 10;
  const std::size_t b = served * 9 / 10;
  if (b <= a + 1 || !(done[b] > done[a])) return 0.0;
  return 1e3 * static_cast<double>(b - a) / (done[b] - done[a]);
}

/// Traced run: median time of one micro-batch through each variant's
/// served backend (ModelRegistry::run, as the serving workers call it) per
/// batch size, on one kernel thread, the condition serving workers run
/// under.
ServiceTable measure_service(serve::ModelRegistry& registry, const Tensor& test_x, Report& r) {
  ServiceTable table;
  bool all_ok = true;
  std::thread([&] {
    single_threaded_kernels();
    const std::int64_t sizes[3] = {1, 8, 16};
    for (int v = 0; v < 3; ++v) {
      for (int b = 0; b < 3; ++b) {
        const Tensor x = capsnet::slice_rows(test_x, 0, sizes[b]);
        std::vector<double> ms;
        for (int rep = 0; rep < 21; ++rep) {
          OBS_SPAN("backend.run");
          const auto t0 = Clock::now();
          const serve::RunResult out =
              registry.run(kVariants[v], x, static_cast<std::uint64_t>(rep));
          ms.push_back(ms_since(t0));
          all_ok = all_ok && out.ok;
        }
        table.ms[v][b] = median(ms);
        r.metric(std::string("backend.run_ms.") + kVariants[v] + ".b" + std::to_string(sizes[b]),
                 table.ms[v][b], "ms");
      }
    }
  }).join();
  r.check("serve.backend_runs_ok", all_ok);
  return table;
}

class ServePhase final : public Phase {
 public:
  ServePhase(Setup& s, const Plan& plan, Report& r) : plan_(plan) {
    const Tensor& x = s.mnist.test_x;
    for (std::int64_t i = 0; i < x.shape().dim(0); ++i) {
      exact_ref_.push_back(direct_scores(*s.capsnet, x, i));
    }
    if (plan.trace) service_ = measure_service(*s.registry, x, r);
    traffic_ = std::make_unique<Traffic>(Traffic{*s.registry, x, s.mnist.test_y, exact_ref_,
                                                 plan.trace ? &service_ : nullptr});
  }

  /// One chunk of the reference run at 1000 req/s; a run makes two per
  /// round. At full size the chunks together hold --seconds of windows
  /// (at least one each), at smoke size each holds one window. Each chunk
  /// is followed by a drain.
  void rep(int /*round*/) override {
    OBS_SPAN("phase.serve");
    constexpr std::int64_t kChunks = 2 * kRounds;
    const auto chunk = static_cast<std::int64_t>(refs_.size());
    const std::int64_t total =
        std::max<std::int64_t>(kChunks, std::llround(plan_.seconds * kReferenceRate / kWindow));
    const std::int64_t windows =
        plan_.serve_full ? (chunk + 1) * total / kChunks - chunk * total / kChunks : 1;
    for (;;) {
      double steal0 = 0.0;
      const double cpu0 = host_cpu_jiffies(&steal0);
      Run ref = run_open_loop(*traffic_, kReferenceRate, windows * kWindow, ++run_seed_);
      double steal1 = 0.0;
      const double cpu1 = host_cpu_jiffies(&steal1);
      const double steal_pct = cpu1 > cpu0 ? 100.0 * (steal1 - steal0) / (cpu1 - cpu0) : 0.0;
      chunk_steal_pct_.push_back(steal_pct);
      if (steal_pct <= kMaxStealPct || retried_ == kStealRetries) {
        refs_.push_back(std::move(ref));
        break;
      }
      ++retried_;
      account(ref);
    }
    OBS_SPAN("serve.drain");
    const Run w = run_open_loop(*traffic_, std::numeric_limits<double>::infinity(),
                                kDrainRequests, ++run_seed_);
    account(w);
    drain_rps_.push_back(drain_rate(w));
  }

  void finish(Report& r) override {
    OBS_SPAN("phase.serve");
    std::vector<double> p99s;
    std::vector<double> p50s[3];
    std::vector<double> lat[3];
    std::int64_t served[3] = {};
    std::int64_t correct[3] = {};
    for (const Run& ref : refs_) {
      const std::vector<double> w = ref.window_p99s();
      p99s.insert(p99s.end(), w.begin(), w.end());
      for (int v = 0; v < 3; ++v) {
        const std::vector<double> p50 = ref.window_p50s(v);
        p50s[v].insert(p50s[v].end(), p50.begin(), p50.end());
        const std::vector<double> l = ref.variant_latencies(v);
        lat[v].insert(lat[v].end(), l.begin(), l.end());
        served[v] += ref.served[v];
        correct[v] += ref.correct[v];
      }
      account(ref);
    }
    for (int v = 0; v < 3; ++v) {
      const std::string name = kVariants[v];
      r.metric("serve_p50_ms." + name, trimmed_mean(p50s[v]), "ms");
      r.info("serve.window_p50_ms." + name, join(p50s[v]));
      r.info("serve.p99_ms." + name, percentile(lat[v], 99.0));
      r.info("serve.samples." + name, static_cast<double>(lat[v].size()));
      r.info("serve.accuracy." + name,
             served[v] == 0 ? 0.0
                            : static_cast<double>(correct[v]) / static_cast<double>(served[v]));
    }
    r.metric("serve_p99_ms", trimmed_mean(p99s), "ms");
    r.info("serve.size", plan_.serve_full ? "full" : "smoke");
    r.info("serve.reference_window_p99_ms", join(p99s));
    r.info("serve.chunk_steal_pct", join(chunk_steal_pct_));
    r.info("serve.chunks_rerun", static_cast<double>(retried_));

    r.metric("serve_max_rps", trimmed_mean(drain_rps_), "1/s");
    r.info("serve.drain_rps", join(drain_rps_));

    r.ops(attempted_, failed_);
    r.check("serve.all_futures_resolved_ok", failed_ == 0);
    r.check("serve.stats_reconcile", reconciles_);
    r.check("serve.exact_equals_direct_infer", mismatches_ == 0);

    if (!plan_.trace) return;
    std::int64_t requests = 0;
    std::int64_t batches = 0;
    std::vector<double> submit_us;
    std::vector<double> queue_wait_ms;
    std::vector<double> lag_ms;
    for (const Run& ref : refs_) {
      requests += ref.stats.requests;
      batches += ref.stats.batches;
      submit_us.insert(submit_us.end(), ref.submit_us.begin(), ref.submit_us.end());
      queue_wait_ms.insert(queue_wait_ms.end(), ref.queue_wait_ms.begin(),
                           ref.queue_wait_ms.end());
      lag_ms.insert(lag_ms.end(), ref.lag_ms.begin(), ref.lag_ms.end());
    }
    r.metric("serve.mean_batch",
             batches == 0 ? 0.0 : static_cast<double>(requests) / static_cast<double>(batches),
             "requests");
    r.metric("serve.batches", static_cast<double>(batches), "count");
    r.metric("serve.submit_us.p50", percentile(submit_us, 50.0), "us");
    r.metric("serve.queue_wait_ms.p50", percentile(queue_wait_ms, 50.0), "ms");
    r.metric("serve.queue_wait_ms.p99", percentile(queue_wait_ms, 99.0), "ms");
    r.metric("serve.generator_lag_ms.p99", percentile(lag_ms, 99.0), "ms");
  }

 private:
  /// Folds one open-loop run into the operation and check tallies.
  void account(const Run& w) {
    attempted_ += static_cast<std::int64_t>(w.latency_ms.size());
    failed_ += w.failed;
    mismatches_ += w.exact_mismatch;
    reconciles_ = reconciles_ && w.stats.reconciles();
  }

  const Plan& plan_;
  std::vector<std::vector<float>> exact_ref_;
  ServiceTable service_;
  std::unique_ptr<Traffic> traffic_;
  std::uint64_t run_seed_ = plan_.seed * 7919ULL;
  std::vector<Run> refs_;
  std::vector<double> drain_rps_;
  std::vector<double> chunk_steal_pct_;  ///< Per reference chunk run, reruns included.
  int retried_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t mismatches_ = 0;
  bool reconciles_ = true;
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase(Setup& s, const Plan& plan, Report& r) {
  return std::make_unique<ServePhase>(s, plan, r);
}

}  // namespace perfbench
