#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/randlc.hpp"

namespace npb {
namespace {

// Reference oracle: the Fortran RANDLC recurrence in its original
// double-split form.  Operands are split into 23-bit halves so that every
// partial product is exact in double precision:
//   a = a1*2^23 + a2,  x = x1*2^23 + x2,
//   z = a1*x2 + a2*x1 (mod 2^23),  a*x = z*2^23 + a2*x2 (mod 2^46).
constexpr double kR23 = 0x1p-23;
constexpr double kT23 = 0x1p23;
constexpr double kR46 = 0x1p-46;
constexpr double kT46 = 0x1p46;

double oracle_randlc(double& x, double a) {
  const double a1 = std::trunc(kR23 * a);
  const double a2 = a - kT23 * a1;
  const double x1 = std::trunc(kR23 * x);
  const double x2 = x - kT23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = std::trunc(kR23 * t1);
  const double z = t1 - kT23 * t2;
  const double t3 = kT23 * z + a2 * x2;
  const double t4 = std::trunc(kR46 * t3);
  x = t3 - kT46 * t4;
  return kR46 * x;
}

// The original skip-ahead: one oracle step per set bit of `steps`, squaring
// the multiplier with the randlc(tt, t) trick (tt == t gives t^2).
double oracle_skip(double seed, double a, unsigned long long steps) {
  double t = a;
  double x = seed;
  while (steps != 0) {
    if (steps & 1ULL) (void)oracle_randlc(x, t);
    steps >>= 1;
    if (steps != 0) {
      double tt = t;
      (void)oracle_randlc(tt, t);
      t = tt;
    }
  }
  return x;
}

constexpr double kMax46 = 0x1p46 - 1.0;
constexpr double kEpSeed = 271828183.0;

// Deterministic 46-bit values (splitmix64, top bits kept).
struct Draw46 {
  std::uint64_t state;
  double next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 18);
  }
  double odd() {
    const double v = next();
    return std::fmod(v, 2.0) == 0.0 ? v + 1.0 : v;
  }
};

// Seeds and multipliers the suite uses (FT's seed is kDefaultSeed), the edges
// of the domain, and composite multipliers a^k (a^(2^40) squared up the way
// randlc_skip does).
std::vector<double> edge_seeds() {
  return {1.0, kMax46, kDefaultSeed, kEpSeed};
}

std::vector<double> composite_multipliers() {
  std::vector<double> m = {kDefaultMultiplier, 1.0, kMax46};
  for (unsigned long long k : {2ULL, 3ULL, 4ULL, 5ULL, 1ULL << 17, (1ULL << 40) + 12345})
    m.push_back(oracle_skip(1.0, kDefaultMultiplier, k));
  double t = kDefaultMultiplier;
  for (int i = 0; i < 40; ++i) {
    double tt = t;
    (void)oracle_randlc(tt, t);
    t = tt;
  }
  m.push_back(t);  // a^(2^40)
  return m;
}

TEST(RandlcOracle, EdgeSeedsAndCompositeMultipliers) {
  for (double a : composite_multipliers()) {
    for (double seed : edge_seeds()) {
      double x = seed, xo = seed;
      for (int i = 0; i < 2000; ++i) {
        const double r = randlc(x, a);
        ASSERT_EQ(r, oracle_randlc(xo, a)) << "seed " << seed << " a " << a << " step " << i;
        ASSERT_EQ(x, xo);
      }
    }
  }
}

TEST(RandlcOracle, RandomOddPairs) {
  Draw46 d{20031022};
  for (int i = 0; i < 1000000; ++i) {
    const double a = d.odd();
    const double seed = d.odd();
    double x = seed, xo = seed;
    const double r = randlc(x, a);
    ASSERT_EQ(r, oracle_randlc(xo, a)) << "x " << seed << " a " << a;
    ASSERT_EQ(x, xo);
  }
}

TEST(RandlcOracle, RandomPairsAnyParity) {
  Draw46 d{46};
  for (int i = 0; i < 100000; ++i) {
    const double a = d.next();
    const double seed = d.next();
    double x = seed, xo = seed;
    ASSERT_EQ(randlc(x, a), oracle_randlc(xo, a)) << "x " << seed << " a " << a;
  }
}

// Every vranlc length class: empty, the serial tail alone (1, 3), exactly one
// leapfrog round (4), a round plus a tail (5), and a long run plus a tail of
// 3, each started at several offsets into the stream and into the buffer.
TEST(VranlcOracle, EveryLeapfrogTail) {
  constexpr double kGuard = -1.0;
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, (1u << 17) + 3};
  const unsigned long long offsets[] = {1, 2, 3, 5, 1000003};
  for (double a : {kDefaultMultiplier, composite_multipliers().back()}) {
    for (double seed : edge_seeds()) {
      for (unsigned long long off : offsets) {
        for (std::size_t n : lengths) {
          const std::size_t pad = off % 4;
          std::vector<double> y(n + pad + 1, kGuard);
          double x = oracle_skip(seed, a, off);
          double xo = x;
          vranlc(n, x, a, y.data() + pad);
          for (std::size_t i = 0; i < pad; ++i) ASSERT_EQ(y[i], kGuard);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(y[pad + i], oracle_randlc(xo, a))
                << "n " << n << " offset " << off << " seed " << seed << " i " << i;
          ASSERT_EQ(y[pad + n], kGuard) << "n " << n;
          ASSERT_EQ(x, xo) << "n " << n << " offset " << off;
        }
      }
    }
  }
}

TEST(VranlcOracle, RandomMultipliers) {
  Draw46 d{7};
  std::vector<double> y(37);
  for (int k = 0; k < 2000; ++k) {
    const double a = d.odd();
    const double seed = d.odd();
    double x = seed, xo = seed;
    vranlc(y.size(), x, a, y.data());
    for (double v : y) ASSERT_EQ(v, oracle_randlc(xo, a)) << "a " << a << " seed " << seed;
    ASSERT_EQ(x, xo);
  }
}

TEST(RandlcSkipOracle, EdgeSeedsAndCompositeMultipliers) {
  const unsigned long long steps[] = {0,        1,         2,         3,
                                      4,        5,         1ULL << 17, (1ULL << 40) + 12345,
                                      1ULL << 46, ~0ULL};
  for (double a : composite_multipliers())
    for (double seed : edge_seeds())
      for (unsigned long long k : steps)
        ASSERT_EQ(randlc_skip(seed, a, k), oracle_skip(seed, a, k))
            << "seed " << seed << " a " << a << " steps " << k;
}

TEST(RandlcSkipOracle, RandomArguments) {
  Draw46 d{1220703125};
  std::uint64_t steps = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    const double a = d.odd();
    const double seed = d.odd();
    steps ^= steps << 13;
    steps ^= steps >> 7;
    steps ^= steps << 17;
    ASSERT_EQ(randlc_skip(seed, a, steps), oracle_skip(seed, a, steps))
        << "seed " << seed << " a " << a << " steps " << steps;
  }
}

TEST(Randlc, ValuesInUnitInterval) {
  double x = kDefaultSeed;
  for (int i = 0; i < 10000; ++i) {
    const double r = randlc(x, kDefaultMultiplier);
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Randlc, DeterministicForSameSeed) {
  double x1 = kDefaultSeed, x2 = kDefaultSeed;
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(randlc(x1, kDefaultMultiplier), randlc(x2, kDefaultMultiplier));
}

TEST(Randlc, MeanIsOneHalf) {
  double x = kDefaultSeed;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += randlc(x, kDefaultMultiplier);
  EXPECT_NEAR(sum / n, 0.5, 2e-3);
}

TEST(Randlc, SeedStaysA46BitInteger) {
  double x = kDefaultSeed;
  for (int i = 0; i < 1000; ++i) {
    randlc(x, kDefaultMultiplier);
    EXPECT_EQ(x, std::trunc(x));
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 70368744177664.0);  // 2^46
  }
}

TEST(Vranlc, MatchesRepeatedRandlc) {
  double xa = kDefaultSeed, xb = kDefaultSeed;
  std::vector<double> batch(257);
  vranlc(batch.size(), xa, kDefaultMultiplier, batch.data());
  for (double v : batch) EXPECT_EQ(v, randlc(xb, kDefaultMultiplier));
  EXPECT_EQ(xa, xb);
}

class RandlcSkip : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(RandlcSkip, EqualsSequentialAdvance) {
  const unsigned long long steps = GetParam();
  double x = kDefaultSeed;
  for (unsigned long long i = 0; i < steps; ++i) randlc(x, kDefaultMultiplier);
  const double skipped = randlc_skip(kDefaultSeed, kDefaultMultiplier, steps);
  EXPECT_EQ(skipped, x);
}

INSTANTIATE_TEST_SUITE_P(Steps, RandlcSkip,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 64ULL,
                                           1000ULL, 65536ULL, 100001ULL));

TEST(RandlcSkip, DisjointStreamsDiffer) {
  const double a = randlc_skip(kDefaultSeed, kDefaultMultiplier, 1u << 16);
  const double b = randlc_skip(kDefaultSeed, kDefaultMultiplier, 1u << 17);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace npb
