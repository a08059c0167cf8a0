// Figure 6: weekly mining-pool power by rank.
//
// The paper collected a year of per-block pool attribution and showed the
// 25/50/75th percentile of weekly power share per rank, fitting the medians
// with exp(-0.27 * rank) at R^2 = 0.99. The raw BlockTrail data is not
// distributable; we regenerate the figure from the published fit plus
// lognormal weekly noise (sim/miner_distribution.hpp) and verify the fit
// recovers.
//
// This table needs no simulation. The skew's security consequences
// (fairness / MPU as the exponent varies) are `ngsim --scenario fig6`.
#include <cstdio>

#include "common/rng.hpp"
#include "sim/miner_distribution.hpp"

int main() {
  using namespace bng;
  std::printf("== Figure 6: ratio of mining power by pool rank (52 synthetic weeks) ==\n\n");

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

  // The paper's experiments emulate 1000 nodes (§7).
  const std::uint32_t kPaperNodes = 1000;
  auto powers = sim::exponential_powers(kPaperNodes, -0.27);
  std::printf("largest-miner share among %u nodes: %.1f%% (paper: ~25%%)\n", kPaperNodes,
              100 * powers[0]);
  std::printf("\nsecurity consequences of the skew: ngsim --scenario fig6\n");
  return 0;
}
