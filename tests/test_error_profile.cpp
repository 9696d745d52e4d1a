#include "approx/error_profile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "approx/library.hpp"
#include "approx/mac_chain.hpp"
#include "core/selection.hpp"

namespace redcane::approx {
namespace {

ProfileConfig quick(int chain = 1) {
  ProfileConfig c;
  c.samples = 20000;
  c.chain_length = chain;
  c.seed = 42;
  return c;
}

TEST(ErrorProfile, ExactComponentHasZeroNoise) {
  const ErrorProfile p =
      profile_multiplier(exact_multiplier(), InputDistribution::uniform(), quick());
  EXPECT_EQ(p.nm, 0.0);
  EXPECT_EQ(p.na, 0.0);
  EXPECT_EQ(p.error_moments.stddev, 0.0);
}

TEST(ErrorProfile, DrumNgrIsSmallAndNearlyUnbiased) {
  const Multiplier& m = multiplier_by_analog("mul8u_NGR");
  const ErrorProfile p = profile_multiplier(m, InputDistribution::uniform(), quick(9));
  EXPECT_GT(p.nm, 0.0);
  EXPECT_LT(p.nm, 0.01);               // Small-error component.
  EXPECT_LT(std::abs(p.na), 0.002);    // Unbiased family.
}

TEST(ErrorProfile, MitchellHasNegativeBias) {
  const ErrorProfile p = profile_multiplier(multiplier_by_name("axm_mitchell"),
                                            InputDistribution::uniform(), quick(9));
  EXPECT_LT(p.na, 0.0);
}

TEST(ErrorProfile, NmOrderingFollowsAggressiveness) {
  const auto nm_of = [](const char* name) {
    return profile_multiplier(multiplier_by_name(name), InputDistribution::uniform(), quick(9))
        .nm;
  };
  EXPECT_LT(nm_of("axm_res2_14vp"), nm_of("axm_res8"));
  EXPECT_LT(nm_of("axm_drum6_2hh"), nm_of("axm_drum4_dm1"));
  EXPECT_LT(nm_of("axm_drum4_dm1"), nm_of("axm_drum3_jv3"));
  EXPECT_LT(nm_of("axm_op2_19db"), nm_of("axm_op3_12n4"));
}

TEST(ErrorProfile, MajorityOfLibraryIsGaussianLike) {
  // Paper Sec. III-B: 31 of 35 components show Gaussian-like error
  // distributions in the 9-MAC accumulation scenario.
  int gaussian_like = 0;
  for (const Multiplier* m : multiplier_library()) {
    const ProfileConfig cfg = quick(9);
    if (profile_multiplier(*m, InputDistribution::uniform(), cfg).gaussian_like) {
      ++gaussian_like;
    }
  }
  EXPECT_GE(gaussian_like, 28);
  EXPECT_LE(gaussian_like, 35);
}

TEST(ErrorProfile, AccumulationImprovesGaussianity) {
  // CLT: the 81-MAC error of a component is closer to Gaussian than the
  // single-multiplication error.
  const Multiplier& m = multiplier_by_name("axm_op3_12n4");
  const ErrorProfile p1 = profile_multiplier(m, InputDistribution::uniform(), quick(1));
  const ErrorProfile p81 = profile_multiplier(m, InputDistribution::uniform(), quick(81));
  EXPECT_LT(p81.gaussian_distance, p1.gaussian_distance);
}

TEST(ErrorProfile, EmpiricalDistributionChangesNm) {
  // Paper Table IV: modeled (uniform) vs real input distributions yield
  // different NM — the parameters are dataset dependent.
  const Multiplier& m = multiplier_by_analog("mul8u_YX7");
  const ErrorProfile uni = profile_multiplier(m, InputDistribution::uniform(), quick(9));
  // A low-valued empirical pool (activations concentrate near zero).
  std::vector<std::uint8_t> pool;
  for (int i = 0; i < 256; ++i) pool.push_back(static_cast<std::uint8_t>(i % 64));
  const ErrorProfile emp =
      profile_multiplier(m, InputDistribution::empirical(pool), quick(9));
  EXPECT_NE(uni.nm, emp.nm);
  EXPECT_LT(emp.nm, uni.nm);  // Smaller operands -> smaller absolute errors.
}

TEST(ErrorProfile, HistogramCoversAllSamples) {
  const ErrorProfile p = profile_multiplier(multiplier_by_name("axm_bam8_96d"),
                                            InputDistribution::uniform(), quick(9));
  const stats::Histogram h = error_histogram(p, 64);
  EXPECT_EQ(h.total(), static_cast<std::int64_t>(p.error_samples.size()));
}

// The profiling algorithm as first written, kept as the oracle of the
// shared-stream implementation: a fresh Rng(seed) per component, one
// run_mac_chain (a virtual multiply per MAC) per sample.
ErrorProfile oracle_profile(const Multiplier& mul, const InputDistribution& dist,
                            const ProfileConfig& cfg) {
  Rng rng(cfg.seed);
  ErrorProfile p;
  p.multiplier_name = mul.info().name;
  p.distribution_label = dist.label();
  p.chain_length = cfg.chain_length;
  std::vector<double> exact_outputs;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(cfg.chain_length));
  std::vector<std::uint8_t> b(a.size());
  for (std::int64_t s = 0; s < cfg.samples; ++s) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = dist.sample(rng);
      b[i] = dist.sample(rng);
    }
    const MacResult r = run_mac_chain(mul, a, b);
    p.error_samples.push_back(static_cast<double>(r.error()));
    exact_outputs.push_back(static_cast<double>(r.exact));
  }
  p.error_moments = stats::moments(std::span<const double>(p.error_samples));
  p.exact_moments = stats::moments(std::span<const double>(exact_outputs));
  const double range = static_cast<double>(cfg.chain_length) * 255.0 * 255.0;
  p.nm = p.error_moments.stddev / range;
  p.na = p.error_moments.mean / range;
  const stats::Histogram h = error_histogram(p, 64);
  p.gaussian_distance =
      stats::gaussian_fit_distance(h, p.error_moments.mean, p.error_moments.stddev);
  p.gaussian_like = p.gaussian_distance < kGaussianLikeThreshold;
  return p;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_moments_bitwise(const stats::Moments& got, const stats::Moments& want,
                            const char* what) {
  EXPECT_EQ(bits(got.mean), bits(want.mean)) << what;
  EXPECT_EQ(bits(got.stddev), bits(want.stddev)) << what;
  EXPECT_EQ(bits(got.min), bits(want.min)) << what;
  EXPECT_EQ(bits(got.max), bits(want.max)) << what;
  EXPECT_EQ(got.count, want.count) << what;
}

TEST(ErrorProfile, SharedStreamMatchesPerComponentOracleBitwise) {
  std::vector<std::uint8_t> pool;  // 200 entries: uniform_index's rejection path.
  for (int i = 0; i < 200; ++i) pool.push_back(static_cast<std::uint8_t>((i * 37) % 97));
  for (const InputDistribution& dist :
       {InputDistribution::uniform(), InputDistribution::empirical(pool)}) {
    for (const int chain : {1, 9, 81}) {
      ProfileConfig cfg;
      cfg.samples = 300;
      cfg.chain_length = chain;
      cfg.seed = 5;
      const std::vector<core::ProfiledComponent> lib =
          core::profile_library(dist, chain, cfg.samples, cfg.seed);
      ASSERT_EQ(lib.size(), multiplier_library().size());
      for (std::size_t c = 0; c < lib.size(); ++c) {
        const Multiplier& m = *multiplier_library()[c];
        SCOPED_TRACE(m.info().name + " " + dist.label() + " chain " + std::to_string(chain));
        const ErrorProfile got = profile_multiplier(m, dist, cfg);
        const ErrorProfile want = oracle_profile(m, dist, cfg);
        EXPECT_EQ(got.multiplier_name, want.multiplier_name);
        EXPECT_EQ(got.distribution_label, want.distribution_label);
        EXPECT_EQ(got.chain_length, want.chain_length);
        expect_moments_bitwise(got.error_moments, want.error_moments, "error_moments");
        expect_moments_bitwise(got.exact_moments, want.exact_moments, "exact_moments");
        EXPECT_EQ(bits(got.nm), bits(want.nm));
        EXPECT_EQ(bits(got.na), bits(want.na));
        EXPECT_EQ(bits(got.gaussian_distance), bits(want.gaussian_distance));
        EXPECT_EQ(got.gaussian_like, want.gaussian_like);
        ASSERT_EQ(got.error_samples.size(), want.error_samples.size());
        for (std::size_t s = 0; s < got.error_samples.size(); ++s) {
          ASSERT_EQ(bits(got.error_samples[s]), bits(want.error_samples[s])) << "sample " << s;
        }
        EXPECT_EQ(lib[c].mul, &m);
        EXPECT_EQ(bits(lib[c].nm), bits(got.nm));
        EXPECT_EQ(bits(lib[c].na), bits(got.na));
        EXPECT_EQ(lib[c].gaussian_like, got.gaussian_like);
      }
    }
  }
}

TEST(ErrorProfileDeathTest, RejectsEmptyChainsAndSampleSets) {
  EXPECT_DEATH((void)profile_multiplier(exact_multiplier(), InputDistribution::uniform(),
                                        quick(0)),
               "chain_length >= 1");
  EXPECT_DEATH((void)core::profile_library(InputDistribution::uniform(), 9, 0, 1),
               "samples >= 1");
}

TEST(InputDistribution, UniformCoversByteRange) {
  const InputDistribution d = InputDistribution::uniform();
  Rng rng(1);
  bool seen_low = false;
  bool seen_high = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint8_t v = d.sample(rng);
    if (v < 16) seen_low = true;
    if (v > 239) seen_high = true;
  }
  EXPECT_TRUE(seen_low);
  EXPECT_TRUE(seen_high);
}

TEST(InputDistribution, EmpiricalReplaysPool) {
  const InputDistribution d = InputDistribution::empirical({7, 7, 7});
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 7);
}

}  // namespace
}  // namespace redcane::approx
