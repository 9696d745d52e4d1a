#include "approx/error_profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace redcane::approx {

InputDistribution::InputDistribution(std::string label, std::vector<std::uint8_t> pool)
    : label_(std::move(label)), pool_(std::move(pool)) {}

InputDistribution InputDistribution::uniform() { return {"uniform", {}}; }

InputDistribution InputDistribution::empirical(std::vector<std::uint8_t> pool) {
  if (pool.empty()) {
    std::fprintf(stderr, "redcane::approx fatal: empirical distribution needs samples\n");
    std::abort();
  }
  return {"empirical", std::move(pool)};
}

std::uint8_t InputDistribution::sample(Rng& rng) const {
  if (pool_.empty()) return static_cast<std::uint8_t>(rng.uniform_index(256));
  return pool_[rng.uniform_index(pool_.size())];
}

OperandStream::OperandStream(const InputDistribution& dist, const ProfileConfig& cfg)
    : label_(dist.label()), chain_length_(cfg.chain_length) {
  if (cfg.samples < 1 || cfg.chain_length < 1) {
    std::fprintf(stderr,
                 "redcane::approx fatal: profiling needs samples >= 1 and chain_length >= 1 "
                 "(got samples=%lld, chain_length=%d)\n",
                 static_cast<long long>(cfg.samples), cfg.chain_length);
    std::abort();
  }
  const auto samples = static_cast<std::size_t>(cfg.samples);
  pairs_.resize(samples * static_cast<std::size_t>(cfg.chain_length));
  exact_.resize(samples);
  std::vector<double> exact_outputs(samples);

  Rng rng(cfg.seed);
  std::uint16_t* pair = pairs_.data();
  for (std::size_t s = 0; s < samples; ++s) {
    std::uint64_t sum = 0;
    for (int i = 0; i < cfg.chain_length; ++i, ++pair) {
      const std::uint8_t a = dist.sample(rng);
      const std::uint8_t b = dist.sample(rng);
      *pair = static_cast<std::uint16_t>((a << 8) | b);
      sum += static_cast<std::uint64_t>(a) * b;
    }
    exact_[s] = sum;
    exact_outputs[s] = static_cast<double>(sum);
  }
  exact_moments_ = stats::moments(std::span<const double>(exact_outputs));
}

ErrorProfile OperandStream::profile(const Multiplier& mul) const {
  std::vector<std::uint32_t> table(kProductTableSize);
  build_product_table(mul, table.data());

  ErrorProfile p;
  p.multiplier_name = mul.info().name;
  p.distribution_label = label_;
  p.chain_length = chain_length_;
  p.exact_moments = exact_moments_;
  p.error_samples.resize(exact_.size());
  const std::uint16_t* pair = pairs_.data();
  for (std::size_t s = 0; s < exact_.size(); ++s) {
    std::uint64_t sum = 0;
    for (int i = 0; i < chain_length_; ++i) sum += table[pair[i]];
    pair += chain_length_;
    p.error_samples[s] = static_cast<double>(static_cast<std::int64_t>(sum) -
                                             static_cast<std::int64_t>(exact_[s]));
  }
  p.error_moments = stats::moments(std::span<const double>(p.error_samples));

  // NM/NA normalize by the full representable output range of the exact
  // datapath rather than the per-sample empirical range: a hardware design
  // sizes its fixed-point format to the datapath, not to one input batch.
  // For a chain of n 8x8 MACs that range is n * 255^2.
  const double range = static_cast<double>(chain_length_) * 255.0 * 255.0;
  p.nm = p.error_moments.stddev / range;
  p.na = p.error_moments.mean / range;

  const stats::Histogram h = error_histogram(p, 64);
  p.gaussian_distance =
      stats::gaussian_fit_distance(h, p.error_moments.mean, p.error_moments.stddev);
  p.gaussian_like = p.gaussian_distance < kGaussianLikeThreshold;
  return p;
}

ErrorProfile profile_multiplier(const Multiplier& mul, const InputDistribution& dist,
                                const ProfileConfig& cfg) {
  return OperandStream(dist, cfg).profile(mul);
}

stats::Histogram error_histogram(const ErrorProfile& profile, std::size_t bins) {
  double bound = 1.0;
  for (double e : profile.error_samples) bound = std::max(bound, std::abs(e));
  stats::Histogram h(-bound * 1.02, bound * 1.02, bins);
  h.add(std::span<const double>(profile.error_samples));
  return h;
}

}  // namespace redcane::approx
