#include "tensor/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace redcane {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, UniformIndexPowerOfTwoMatchesRejectionFormula) {
  // The power-of-two fast path must return exactly what rejection sampling
  // returns from the same state, and consume the same draws.
  for (const std::uint64_t n : {1ULL, 2ULL, 256ULL, 1ULL << 32, 1ULL << 63}) {
    Rng fast(23);
    Rng ref(23);
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t limit = ~0ULL - (~0ULL % n + 1) % n;
      std::uint64_t x = ref.next_u64();
      while (x > limit) x = ref.next_u64();
      ASSERT_EQ(fast.uniform_index(n), x % n) << "n=" << n << " draw " << i;
    }
    EXPECT_EQ(fast.next_u64(), ref.next_u64()) << "n=" << n;
  }
}

TEST(Rng, NormalMomentsCloseToStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent2(19);
  (void)parent2.next_u64();  // Fork consumed one draw.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace redcane
