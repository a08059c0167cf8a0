// Figure 7: block propagation latency vs block size.
//
// Paper §7 ("Network"): experiments with different block sizes at constant
// transaction-per-second load show propagation time growing linearly with
// size, matching Decker & Wattenhofer's measurements of the operational
// network. We reproduce the 25/50/75th percentiles and the linearity check.
//
// Thin wrapper over the registered "fig7" scenario (src/runner/): the sweep
// engine runs (size × seed) jobs in parallel and aggregates per-seed
// propagation percentiles.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"

int main() {
  using namespace bng;
  bench::print_header("Figure 7: propagation latency vs block size (Bitcoin)");

  const auto result = bench::run_registered("fig7");

  // Multi-seed note: these columns are the seed-balanced mean of per-seed
  // percentiles (each seed weighs equally); the paper pooled all (block,
  // node) samples before taking percentiles, which overweights seeds that
  // generated more blocks. Identical at REPRO_SEEDS=1.
  std::printf("\n%-12s %10s %10s %10s  (mean over seeds of per-seed percentiles)\n",
              "size[B]", "p25[s]", "p50[s]", "p75[s]");
  std::vector<double> xs, medians;
  for (const auto& point : result.points) {
    const double p50 = runner::aggregate_mean(point, "prop_p50_s");
    std::printf("%-12.0f %10.2f %10.2f %10.2f\n", point.x,
                runner::aggregate_mean(point, "prop_p25_s"), p50,
                runner::aggregate_mean(point, "prop_p75_s"));
    xs.push_back(point.x);
    medians.push_back(p50);
  }

  auto fit = linear_fit(xs, medians);
  std::printf("\nlinear fit of median vs size: R^2=%.3f (paper: qualitatively linear, "
              "cf. Decker-Wattenhofer)\n",
              fit.r2);
  // The fit is in s per byte: x1000 bytes/KB and x1000 ms/s.
  std::printf("slope=%.2f ms/KB intercept=%.2f s\n", fit.slope * 1e6, fit.intercept);
  return 0;
}
