// Real ECDSA accepts everything honest nodes sign. Signature checks are off
// by default, so every other NG run trusts the signing code blindly. Here the
// same sweep runs with verify_signatures off and on, and the RunRecords must
// be identical: no honest microblock and no fraud proof (whose signed
// headers check_poison verifies) may be rejected.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "ng/ng_node.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "sim/trace.hpp"

namespace bng {
namespace {

/// An honest NG point and an equivocating-leader point, 24 nodes.
runner::Scenario ng_signing_scenario(bool verify_signatures) {
  runner::Scenario s;
  s.name = "verify_signatures";
  s.description = "NG sweep whose records must not depend on signature checks";
  s.seed_base = 9300;
  s.base.num_nodes = 24;
  s.base.target_blocks = 60;
  s.base.drain_time = 30;
  s.base.params = chain::Params::bitcoin_ng();
  s.base.params.block_interval = 15.0;
  s.base.params.microblock_interval = 3.0;
  s.base.params.max_block_size = 5000;
  s.base.params.max_microblock_size = 5000;
  s.base.verify_signatures = verify_signatures;
  runner::Axis axis{"leader", {}};
  axis.values.push_back(runner::AxisValue{"honest", 0, [](sim::ExperimentConfig&) {}});
  axis.values.push_back(runner::AxisValue{"equivocate", 1, [](sim::ExperimentConfig& cfg) {
                                            cfg.adversary.kind =
                                                sim::AdversarySpec::Kind::kEquivocate;
                                            cfg.adversary.power_share = 0.35;
                                            cfg.adversary.equivocate_every = 1;
                                          }});
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, runner::NamedValues& v) {
    // A node places a poison transaction only after check_poison accepts the
    // fraud proof it carries.
    std::uint64_t poisons_placed = 0;
    for (const auto& node : exp.nodes())
      poisons_placed += static_cast<const ng::NgNode&>(*node).poisons_placed();
    v.emplace_back("frauds_detected", static_cast<double>(exp.trace().frauds().size()));
    v.emplace_back("poisons_placed", static_cast<double>(poisons_placed));
  };
  return s;
}

double value_of(const runner::RunRecord& rec, const std::string& name) {
  for (const auto& [key, value] : rec.values)
    if (key == name) return value;
  ADD_FAILURE() << "no value " << name;
  return 0;
}

TEST(VerifySignatures, OnAndOffGiveIdenticalRecords) {
  runner::SweepOptions opt;
  opt.seeds = 2;
  opt.jobs = 2;
  const auto off = runner::run_sweep(ng_signing_scenario(false), opt);
  const auto on = runner::run_sweep(ng_signing_scenario(true), opt);

  ASSERT_EQ(off.points.size(), 2u);
  ASSERT_EQ(on.points.size(), off.points.size());
  for (std::size_t p = 0; p < off.points.size(); ++p) {
    ASSERT_EQ(on.points[p].seeds.size(), off.points[p].seeds.size());
    for (std::size_t i = 0; i < off.points[p].seeds.size(); ++i) {
      const runner::RunRecord& a = off.points[p].seeds[i];
      const runner::RunRecord& b = on.points[p].seeds[i];
      SCOPED_TRACE("point " + std::to_string(p) + " seed " + std::to_string(i));
      EXPECT_EQ(a.digest, b.digest);
      ASSERT_EQ(a.values.size(), b.values.size());
      for (std::size_t m = 0; m < a.values.size(); ++m) {
        EXPECT_EQ(a.values[m].first, b.values[m].first);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.values[m].second),
                  std::bit_cast<std::uint64_t>(b.values[m].second))
            << a.values[m].first;
      }
      EXPECT_EQ(runner::encode_record(a), runner::encode_record(b));
    }
  }

  // The equivocation point really produced fraud proofs, and honest leaders
  // verified and placed them.
  double frauds = 0, poisons = 0;
  for (const runner::RunRecord& rec : on.points[1].seeds) {
    frauds += value_of(rec, "frauds_detected");
    poisons += value_of(rec, "poisons_placed");
  }
  EXPECT_GT(frauds, 0);
  EXPECT_GT(poisons, 0);
}

}  // namespace
}  // namespace bng
