#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace bng {

double percentile(std::vector<double> samples, double p) {
  return select_percentile(samples, p);
}

double select_percentile(std::span<double> samples, double p) {
  if (samples.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  if (samples.size() == 1) return samples[0];
  // The same two order statistics percentile_sorted interpolates between,
  // found by selection: the lo-th, then the least of what lies above it.
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto lo_it = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), lo_it, samples.end());
  const double low = *lo_it;
  const double high = lo + 1 < samples.size() ? *std::min_element(lo_it + 1, samples.end()) : low;
  return low * (1.0 - frac) + high * frac;
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.size() == 1) return sorted[0];
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double s = 0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

double stddev(std::span<const double> samples) {
  if (samples.size() < 2) return 0.0;
  double m = mean(samples);
  double s = 0;
  for (double v : samples) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(samples.size() - 1));
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  LinearFit fit;
  auto n = static_cast<double>(x.size());
  if (x.size() < 2) return fit;
  double mx = mean(x), my = mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  (void)n;
  if (sxx == 0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy == 0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

LinearFit exponential_fit(std::span<const double> x, std::span<const double> y) {
  std::vector<double> logy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    assert(y[i] > 0);
    logy[i] = std::log(y[i]);
  }
  return linear_fit(x, logy);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  s.n = samples.size();
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.mean = mean(samples);
  s.p25 = percentile_sorted(samples, 25);
  s.p50 = percentile_sorted(samples, 50);
  s.p75 = percentile_sorted(samples, 75);
  s.p90 = percentile_sorted(samples, 90);
  return s;
}

std::string format_summary(const Summary& s) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "n=%zu min=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f max=%.3f mean=%.3f",
                s.n, s.min, s.p25, s.p50, s.p75, s.p90, s.max, s.mean);
  return buf;
}

}  // namespace bng
