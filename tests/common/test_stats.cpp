#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace bng {
namespace {

TEST(Percentile, EmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Percentile, SingleElement) { EXPECT_EQ(percentile({7.0}, 90), 7.0); }

TEST(Percentile, MedianOfOddCount) { EXPECT_EQ(percentile({3, 1, 2}, 50), 2.0); }

TEST(Percentile, MedianInterpolates) { EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2.5); }

TEST(Percentile, Extremes) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 100), 9.0);
}

TEST(Percentile, P90OfMostlyZeros) {
  std::vector<double> v(100, 0.0);
  v[0] = 100.0;  // one outlier
  EXPECT_EQ(percentile(v, 90), 0.0);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_EQ(percentile({10, 0, 5}, 50), 5.0);
}

// Selection must return the exact bits a sort returns: the same two order
// statistics, interpolated the same way. Random sets of every small size and
// many larger ones, with heavy duplicates (values drawn from a few dozen
// levels), at the ranks the metrics use plus the ends. One copy serves all
// ranks, as in compute_metrics.
TEST(Percentile, SelectionMatchesTheSortedOracleBitForBit) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  constexpr double kRanks[] = {0, 0.5, 25, 50, 90, 99, 100};
  std::mt19937_64 gen(20261019);
  std::vector<std::size_t> sizes{0, 1, 2};
  for (std::size_t n = 3; n <= 64; ++n) sizes.push_back(n);
  for (int k = 0; k < 60; ++k) sizes.push_back(65 + gen() % 1936);  // up to 2,000
  for (const std::size_t n : sizes) {
    const std::uint64_t levels = 1 + gen() % 40;
    std::vector<double> samples(n);
    for (double& v : samples)
      v = static_cast<double>(gen() % levels) * 0.37 + (gen() % 4 == 0 ? 1e-3 : 0.0);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> shared = samples;
    for (const double p : kRanks) {
      const double want = percentile_sorted(sorted, p);
      EXPECT_EQ(bits(percentile(samples, p)), bits(want)) << "n=" << n << " p=" << p;
      EXPECT_EQ(bits(select_percentile(shared, p)), bits(want)) << "n=" << n << " p=" << p;
    }
  }
}

TEST(MeanStddev, BasicValues) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 0.001);
}

TEST(MeanStddev, EmptyAndSingleton) {
  EXPECT_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(LinearFitTest, PerfectLine) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};  // y = 1 + 2x
  auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineHighR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.02);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LinearFitTest, ConstantYGivesZeroSlope) {
  std::vector<double> x{1, 2, 3}, y{4, 4, 4};
  auto fit = linear_fit(x, y);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.intercept, 4.0);
}

TEST(ExponentialFitTest, RecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * std::exp(-0.27 * i));
  }
  auto fit = exponential_fit(x, y);
  EXPECT_NEAR(fit.slope, -0.27, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(SummaryTest, FieldsConsistent) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_LT(s.p25, s.p50);
  EXPECT_LT(s.p50, s.p75);
  EXPECT_LT(s.p75, s.p90);
}

TEST(SummaryTest, FormatContainsFields) {
  auto s = summarize({1.0, 2.0, 3.0});
  auto text = format_summary(s);
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
}

}  // namespace
}  // namespace bng
