// The paper's qualitative claims, asserted on the registered scenarios at
// reduced scale with several seeds.
#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"
#include "runner/emit.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

// Fig. 7 (§7): median block propagation time grows linearly with block size.
// A block reaches the median node only after crossing at least one link, so
// the slope is at least one hop's serialization time per byte.
TEST(PaperClaims, Fig7MedianPropagationIsLinearInBlockSize) {
  const auto scenario = make_scenario("fig7", RunKnobs{100, 60});
  ASSERT_TRUE(scenario.has_value());
  SweepOptions options;
  options.seeds = 3;
  const SweepResult result = run_sweep(*scenario, options);

  std::vector<double> sizes;
  std::vector<double> medians;
  for (const PointResult& point : result.points) {
    sizes.push_back(point.x);
    medians.push_back(aggregate_mean(point, "prop_p50_s"));
  }
  ASSERT_EQ(sizes.size(), 5u);
  const LinearFit fit = linear_fit(sizes, medians);
  const double one_hop_s_per_byte = 8.0 / scenario->base.link.bandwidth_bps;
  EXPECT_GT(fit.r2, 0.95);
  // s per byte x 1e6 = ms per KB.
  EXPECT_GE(fit.slope, one_hop_s_per_byte)
      << "slope " << fit.slope * 1e6 << " ms/KB, one hop "
      << one_hop_s_per_byte * 1e6 << " ms/KB";
}

}  // namespace
}  // namespace bng::runner
