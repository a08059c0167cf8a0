// Figure 6: weekly mining-pool power by rank.
//
// The paper collected a year of per-block pool attribution and showed the
// 25/50/75th percentile of weekly power share per rank, fitting the medians
// with exp(-0.27 * rank) at R^2 = 0.99. The raw BlockTrail data is not
// distributable; we regenerate the figure from the published fit plus
// lognormal weekly noise (sim/miner_distribution.hpp) and verify the fit
// recovers.
//
// The analytic part needs no simulation; the registered "fig6" scenario
// (src/runner/) then sweeps the fitted exponent to show the skew's security
// consequences (fairness / MPU) under contention.
#include <cstdio>

#include "bench_common.hpp"
#include "sim/miner_distribution.hpp"

int main() {
  using namespace bng;
  bench::print_header("Figure 6: ratio of mining power by pool rank (52 synthetic weeks)");

  Rng rng(2015);
  const std::uint32_t kPools = 20;
  const std::uint32_t kWeeks = 52;
  auto stats = sim::weekly_rank_statistics(kPools, kWeeks, -0.27, 0.25, rng);

  std::printf("%-6s %8s %8s %8s\n", "rank", "p25", "p50", "p75");
  for (std::uint32_t r = 0; r < kPools; ++r)
    std::printf("%-6u %7.2f%% %7.2f%% %7.2f%%\n", r + 1, 100 * stats.p25[r],
                100 * stats.p50[r], 100 * stats.p75[r]);

  auto fit = sim::fit_rank_exponent(stats.p50);
  std::printf("\nexponential fit over medians: exponent=%.3f (paper: -0.27), R^2=%.3f "
              "(paper: 0.99)\n",
              fit.exponent, fit.r2);

  auto powers = sim::exponential_powers(bench::nodes(), -0.27);
  std::printf("largest-miner share in the experiment population: %.1f%% (paper: ~25%%)\n\n",
              100 * powers[0]);

  std::printf("security consequences of the skew (scenario fig6):\n");
  bench::run_registered("fig6");
  return 0;
}
