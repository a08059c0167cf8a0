// Small statistics toolkit used by the metrics suite and bench harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace bng {

/// Linear-interpolated percentile. `p` in [0,100]. Empty input -> 0.
/// Input does not need to be sorted.
double percentile(std::vector<double> samples, double p);

/// percentile() over input already sorted ascending: no copy, no sort, so
/// several ranks of one sample set cost a single sort.
double percentile_sorted(std::span<const double> sorted, double p);

double mean(std::span<const double> samples);
double stddev(std::span<const double> samples);

/// Least-squares fit y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0;
  double slope = 0;
  double r2 = 0;
};
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// Fit y = c * exp(k * x) by linear regression on log(y) (y must be > 0).
/// Returns {log(c), k, r2-in-log-space} in LinearFit fields.
LinearFit exponential_fit(std::span<const double> x, std::span<const double> y);

/// Compact five-number-style summary for report printing.
struct Summary {
  std::size_t n = 0;
  double min = 0, p25 = 0, p50 = 0, p75 = 0, p90 = 0, max = 0, mean = 0;
};
Summary summarize(std::vector<double> samples);

std::string format_summary(const Summary& s);

}  // namespace bng
