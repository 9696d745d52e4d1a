// Error profiling of approximate components (paper Sec. III-B, Fig. 6,
// Table IV).
//
// Computes the distribution of arithmetic errors ΔP' = P'(a,b) − P(a,b)
// over a representative input set I, for a single multiplication or for
// 9-/81-long MAC chains, then fits Gaussian moments and derives the
// range-relative noise parameters:
//
//     NM = std(Δ) / R      NA = mean(Δ) / R      R = chain_length * 255^2
//
// where R is the full representable output range of an exact chain of
// 8x8 MACs, not the range of the sampled outputs.
//
// Every component is profiled over the same input set: an OperandStream
// draws it once, and profiling a component builds its 256x256 product table
// once and sums every chain by table reads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "approx/multiplier.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace redcane::approx {

/// A source of 8-bit operand samples. Uniform sources model the paper's
/// "modeled" distribution; empirical sources replay quantized network
/// activations/weights ("real" distribution, Fig. 11 / Table IV).
class InputDistribution {
 public:
  /// Uniform over [0, 255].
  static InputDistribution uniform();

  /// Empirical: samples are drawn (with replacement) from `pool`.
  /// Aborts if pool is empty.
  static InputDistribution empirical(std::vector<std::uint8_t> pool);

  [[nodiscard]] std::uint8_t sample(Rng& rng) const;
  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  InputDistribution(std::string label, std::vector<std::uint8_t> pool);

  std::string label_;
  std::vector<std::uint8_t> pool_;  ///< Empty => uniform.
};

/// Profiling configuration.
struct ProfileConfig {
  std::int64_t samples = 100000;  ///< |I| per scenario (paper uses 1e5).
  int chain_length = 1;           ///< 1 for single mult, 9 / 81 for MAC chains.
  std::uint64_t seed = 42;        ///< RNG seed of the operand stream.
};

/// Result of profiling one component under one input distribution.
struct ErrorProfile {
  std::string multiplier_name;     ///< Library name of the profiled component.
  std::string distribution_label;  ///< Input distribution ("uniform", "empirical").
  int chain_length = 1;            ///< MACs per sample (1 / 9 / 81).

  stats::Moments error_moments;   ///< Moments of Δ.
  stats::Moments exact_moments;   ///< Moments of the exact chain outputs.
  double nm = 0.0;                ///< std(Δ) / (chain_length * 255^2).
  double na = 0.0;                ///< mean(Δ) / (chain_length * 255^2).
  double gaussian_distance = 0.0; ///< L1 distance of Δ histogram to Gaussian fit.
  bool gaussian_like = false;     ///< Paper: 31 of 35 components qualify.

  std::vector<double> error_samples;  ///< Raw Δ samples (for histograms).
};

/// The input set of one profiling run: `cfg.samples` chains of
/// `cfg.chain_length` operand pairs, drawn once and shared by every
/// component profiled from it.
class OperandStream {
 public:
  /// Draws the operands from Rng(cfg.seed) in the order a0, b0, a1, b1, ...
  /// per sample, samples in order, and sums each chain exactly. Aborts if
  /// cfg.samples < 1 or cfg.chain_length < 1.
  OperandStream(const InputDistribution& dist, const ProfileConfig& cfg);

  /// Profiles `mul` over this stream: builds its product table once, then
  /// sums every chain by table reads.
  [[nodiscard]] ErrorProfile profile(const Multiplier& mul) const;

 private:
  std::string label_;
  int chain_length_;
  std::vector<std::uint16_t> pairs_;  ///< (a << 8) | b per MAC, sample-major.
  std::vector<std::uint64_t> exact_;  ///< Exact chain sum per sample.
  stats::Moments exact_moments_;
};

/// Profiles `mul` under `dist`: runs `cfg.samples` independent chains of
/// `cfg.chain_length` MACs and aggregates errors. Same as
/// OperandStream(dist, cfg).profile(mul).
[[nodiscard]] ErrorProfile profile_multiplier(const Multiplier& mul,
                                              const InputDistribution& dist,
                                              const ProfileConfig& cfg);

/// Threshold on gaussian_fit_distance below which a profile is declared
/// Gaussian-like. Chosen so that heavily biased / multi-modal components
/// (Mitchell-truncated, deep result truncation) fall outside, matching the
/// paper's 31-of-35 observation.
inline constexpr double kGaussianLikeThreshold = 0.35;

/// Builds a histogram of a profile's error samples with symmetric bounds.
[[nodiscard]] stats::Histogram error_histogram(const ErrorProfile& profile, std::size_t bins);

}  // namespace redcane::approx
