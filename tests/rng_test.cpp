// Unit and statistical tests for the deterministic RNG and samplers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.hpp"

namespace haechi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBelow(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.NextGaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Zipfian, ProbabilitiesMatchEmpiricalFrequencies) {
  constexpr std::uint64_t kN = 50;
  ZipfianSampler zipf(kN, 0.99);
  Rng rng(31);
  std::vector<int> counts(kN, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double expected = zipf.Probability(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, expected * 0.1) << "rank " << k;
  }
}

TEST(Zipfian, RankZeroIsMostPopular) {
  ZipfianSampler zipf(100, 0.6);
  for (std::uint64_t k = 1; k < 100; ++k) {
    EXPECT_GT(zipf.Probability(0), zipf.Probability(k));
  }
}

TEST(Zipfian, ThetaZeroIsUniform) {
  ZipfianSampler zipf(10, 0.0);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-12);
  }
}

TEST(Zipfian, PaperGroupWeights) {
  // The paper's reservation distribution: 5 groups, exponent 0.6. Checks
  // the weight ratios used to derive Fig 9(b)'s reservations.
  ZipfianSampler zipf(5, 0.6);
  EXPECT_NEAR(zipf.Weight(0) / zipf.Weight(1), std::pow(2.0, 0.6), 1e-12);
  // Group 1 share of total: 1 / sum(k^-0.6) ≈ 0.334 — yields the paper's
  // 236 KIOPS for C1/C2 at 90% of 1570 KIOPS.
  double total = 0;
  for (std::uint64_t k = 0; k < 5; ++k) total += zipf.Weight(k);
  EXPECT_NEAR(zipf.Weight(0) / total, 0.334, 0.001);
}

/// The first rank whose CDF covers u, by binary search over the whole CDF
/// — the reference the guide-table lookup must reproduce exactly.
std::uint64_t ReferenceRank(const std::vector<double>& cdf, double u) {
  std::uint64_t lo = 0;
  std::uint64_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(Zipfian, GuideTableMatchesFullBinarySearch) {
  // The workloads' key space (16384 records, theta 0.99) for a million
  // draws, then shapes with plateaus (theta 40 underflows the tail weights
  // to zero), a heavy head, a non-power-of-two n and n = 1.
  struct Shape {
    std::uint64_t n;
    double theta;
    int draws;
  };
  for (const Shape shape : {Shape{16384, 0.99, 1'000'000},
                            Shape{1000, 0.6, 100'000},
                            Shape{1000, 40.0, 100'000},
                            Shape{100'000, 3.0, 100'000},
                            Shape{7, 0.0, 10'000}, Shape{1, 0.99, 1'000}}) {
    const ZipfianSampler zipf(shape.n, shape.theta);
    Rng draws(shape.n);
    Rng samples(shape.n);
    for (int i = 0; i < shape.draws; ++i) {
      const double u = draws.NextDouble();
      const std::uint64_t expected = ReferenceRank(zipf.cdf(), u);
      ASSERT_EQ(zipf.RankAt(u), expected)
          << "n " << shape.n << " theta " << shape.theta << " u " << u;
      ASSERT_EQ(zipf.Sample(samples), expected);
    }
  }
}

TEST(Zipfian, GuideTableMatchesAtEdgeDraws) {
  for (const double theta : {0.0, 0.6, 0.99, 40.0}) {
    for (const std::uint64_t n : {1ULL, 5ULL, 1000ULL, 1024ULL, 1025ULL}) {
      const ZipfianSampler zipf(n, theta);
      const std::vector<double>& cdf = zipf.cdf();
      std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0), 1.0};
      // Every CDF entry and its floating-point neighbours.
      for (const double c : cdf) {
        edges.push_back(c);
        edges.push_back(std::nextafter(c, 0.0));
        edges.push_back(std::nextafter(c, 2.0));
      }
      // Guide-bucket boundaries b/G (G = 2048 covers every n above) and
      // their neighbours.
      for (int b = 0; b <= 2048; ++b) {
        const double boundary = b / 2048.0;
        edges.push_back(boundary);
        edges.push_back(std::nextafter(boundary, 0.0));
        edges.push_back(std::nextafter(boundary, 2.0));
      }
      for (const double u : edges) {
        if (u < 0.0 || u > 1.0) continue;
        ASSERT_EQ(zipf.RankAt(u), ReferenceRank(cdf, u))
            << "n " << n << " theta " << theta << " u " << u;
      }
    }
  }
}

TEST(Zipfian, SamplersWithEqualParametersShareOneTable) {
  const ZipfianSampler a(4096, 0.99);
  const ZipfianSampler b(4096, 0.99);
  const ZipfianSampler other_theta(4096, 0.5);
  const ZipfianSampler other_n(4097, 0.99);
  EXPECT_EQ(&a.cdf(), &b.cdf());
  EXPECT_NE(&a.cdf(), &other_theta.cdf());
  EXPECT_NE(&a.cdf(), &other_n.cdf());
}

TEST(ScrambledZipfian, SpreadsHotKeys) {
  constexpr std::uint64_t kN = 1000;
  ScrambledZipfianSampler zipf(kN, 0.99);
  Rng rng(41);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  // The two hottest keys must not be adjacent (scrambling property).
  std::uint64_t hottest = 0, second = 0;
  int hottest_count = 0, second_count = 0;
  for (const auto& [key, count] : counts) {
    if (count > hottest_count) {
      second = hottest;
      second_count = hottest_count;
      hottest = key;
      hottest_count = count;
    } else if (count > second_count) {
      second = key;
      second_count = count;
    }
  }
  EXPECT_GT(hottest_count, second_count);
  EXPECT_GT(hottest > second ? hottest - second : second - hottest, 1u);
}

}  // namespace
}  // namespace haechi
