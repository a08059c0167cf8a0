// Scenario registry, declarative overrides and the scenario-file loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "runner/scenario.hpp"

namespace bng::runner {
namespace {

const RunKnobs kSmall{30, 6};

TEST(Registry, BuiltinsAreRegistered) {
  const auto scenarios = list_scenarios();
  auto has = [&](const char* name) {
    for (const auto& [n, d] : scenarios)
      if (n == name) return true;
    return false;
  };
  EXPECT_TRUE(has("fig6"));
  EXPECT_TRUE(has("fig7"));
  EXPECT_TRUE(has("fig8a"));
  EXPECT_TRUE(has("fig8b"));
  EXPECT_TRUE(has("ablation_ghost"));
  EXPECT_TRUE(has("ablation_keyblock_freq"));
  EXPECT_TRUE(has("ablation_power_drop"));
  EXPECT_TRUE(has("ablation_selfish_mining"));
  EXPECT_TRUE(has("selfish_threshold"));
  EXPECT_TRUE(has("partition_heal"));
  EXPECT_TRUE(has("eclipse"));
  EXPECT_TRUE(has("eclipse_selfish"));
  EXPECT_TRUE(has("ng_poison"));
  EXPECT_TRUE(has("attack_smoke"));
  EXPECT_TRUE(has("smoke"));
}

TEST(Registry, MakeScenarioRecordsItsShippableSource) {
  const auto s = make_scenario("smoke", kSmall);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(s->source.has_value());
  EXPECT_EQ(s->source->kind, ScenarioSource::Kind::kBuiltin);
  EXPECT_EQ(s->source->ref, "smoke");
  EXPECT_EQ(s->source->knobs.nodes, kSmall.nodes);
  EXPECT_EQ(s->source->knobs.blocks, kSmall.blocks);
}

TEST(Registry, EclipseSelfishComposesAdversaryAndFaults) {
  const auto s = make_scenario("eclipse_selfish", kSmall);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->base.adversary.kind, sim::AdversarySpec::Kind::kSelfish);
  const auto points = expand(*s);
  ASSERT_EQ(points.size(), 3u);  // eclipse duration axis
  EXPECT_TRUE(points[0].config.faults.empty());   // dark=0s baseline
  EXPECT_FALSE(points[1].config.faults.empty());  // hubs eclipsed
  EXPECT_EQ(points[1].config.faults.eclipses.size(), 3u);
  EXPECT_EQ(points[1].config.adversary.kind, sim::AdversarySpec::Kind::kSelfish);
}

TEST(Registry, UnknownNameIsNullopt) {
  EXPECT_FALSE(make_scenario("definitely_not_registered", kSmall).has_value());
}

TEST(Registry, KnobsScaleTheScenario) {
  const auto s = make_scenario("fig8a", kSmall);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->base.num_nodes, 30u);
  EXPECT_EQ(s->base.target_blocks, 6u);
}

TEST(Expand, CartesianProductOfAxes) {
  const auto s = make_scenario("fig8a", kSmall);  // protocol(2) x frequency(5)
  ASSERT_TRUE(s.has_value());
  const auto points = expand(*s);
  ASSERT_EQ(points.size(), 10u);
  EXPECT_EQ(points[0].labels.size(), 2u);
  EXPECT_EQ(points[0].labels[0], "bitcoin");
  EXPECT_EQ(points[5].labels[0], "ng");
  // The NG half sweeps the microblock plane, not the key-block interval.
  EXPECT_EQ(points[5].config.params.protocol, chain::Protocol::kBitcoinNG);
  EXPECT_DOUBLE_EQ(points[5].config.params.block_interval, 100.0);
  EXPECT_DOUBLE_EQ(points[5].config.params.microblock_interval, 1.0 / 0.01);
  // Bitcoin sweeps the block interval directly.
  EXPECT_EQ(points[0].config.params.protocol, chain::Protocol::kBitcoin);
  EXPECT_DOUBLE_EQ(points[0].config.params.block_interval, 1.0 / 0.01);
}

TEST(Expand, NoAxesIsOnePoint) {
  Scenario s;
  s.base.num_nodes = 7;
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].labels.empty());
  EXPECT_EQ(points[0].config.num_nodes, 7u);
}

TEST(Overrides, AppliesKnownKeys) {
  sim::ExperimentConfig cfg;
  apply_config_override(cfg, "protocol", "bitcoin");
  EXPECT_EQ(cfg.params.protocol, chain::Protocol::kBitcoin);
  apply_config_override(cfg, "nodes", "123");
  EXPECT_EQ(cfg.num_nodes, 123u);
  apply_config_override(cfg, "block_interval", "2.5");
  EXPECT_DOUBLE_EQ(cfg.params.block_interval, 2.5);
  apply_config_override(cfg, "max_block_size", "40000");
  EXPECT_EQ(cfg.params.max_block_size, 40'000u);
  apply_config_override(cfg, "verify_signatures", "true");
  EXPECT_TRUE(cfg.verify_signatures);
  apply_config_override(cfg, "tie_break", "first-seen");
  EXPECT_EQ(cfg.params.tie_break, chain::TieBreak::kFirstSeen);
}

TEST(Overrides, AppliesAdversaryKeys) {
  sim::ExperimentConfig cfg;
  apply_config_override(cfg, "adversary", "selfish");
  EXPECT_EQ(cfg.adversary.kind, sim::AdversarySpec::Kind::kSelfish);
  apply_config_override(cfg, "adversary", "stubborn");
  EXPECT_EQ(cfg.adversary.kind, sim::AdversarySpec::Kind::kStubborn);
  apply_config_override(cfg, "adversary", "equivocate");
  EXPECT_EQ(cfg.adversary.kind, sim::AdversarySpec::Kind::kEquivocate);
  apply_config_override(cfg, "adversary", "withhold-micro");
  EXPECT_EQ(cfg.adversary.kind, sim::AdversarySpec::Kind::kWithholdMicro);
  apply_config_override(cfg, "adversary_node", "3");
  EXPECT_EQ(cfg.adversary.node, 3u);
  apply_config_override(cfg, "adversary_share", "0.33");
  EXPECT_DOUBLE_EQ(cfg.adversary.power_share, 0.33);
  apply_config_override(cfg, "adversary_gamma", "0.25");
  EXPECT_DOUBLE_EQ(cfg.adversary.gamma, 0.25);
  apply_config_override(cfg, "equivocate_every", "2");
  EXPECT_EQ(cfg.adversary.equivocate_every, 2u);
  apply_config_override(cfg, "adversary", "none");
  EXPECT_EQ(cfg.adversary.kind, sim::AdversarySpec::Kind::kNone);
  EXPECT_THROW(apply_config_override(cfg, "adversary", "mallory"),
               std::invalid_argument);
}

TEST(Overrides, RejectsUnknownKeyAndBadValue) {
  sim::ExperimentConfig cfg;
  EXPECT_THROW(apply_config_override(cfg, "no_such_key", "1"), std::invalid_argument);
  EXPECT_THROW(apply_config_override(cfg, "nodes", "abc"), std::invalid_argument);
  EXPECT_THROW(apply_config_override(cfg, "block_interval", "1.5x"),
               std::invalid_argument);
  EXPECT_THROW(apply_config_override(cfg, "protocol", "dogecoin"), std::invalid_argument);
  // Retired with the sharded engine: now an unknown key like any other.
  EXPECT_THROW(apply_config_override(cfg, "shards", "2"), std::invalid_argument);
  // 32-bit fields reject values past UINT32_MAX instead of wrapping them
  // (4294967326 would run 30 nodes, 4294967298 would run 2 blocks).
  for (const char* key :
       {"nodes", "min_degree", "blocks", "adversary_node", "equivocate_every"}) {
    EXPECT_THROW(apply_config_override(cfg, key, "4294967296"), std::invalid_argument)
        << key;
  }
  EXPECT_THROW(apply_config_override(cfg, "nodes", "4294967326"), std::invalid_argument);
  EXPECT_THROW(apply_config_override(cfg, "blocks", "4294967298"), std::invalid_argument);
  // tx_fee is a signed 64-bit amount: past INT64_MAX it would turn negative.
  EXPECT_THROW(apply_config_override(cfg, "tx_fee", "9223372036854775808"),
               std::invalid_argument);
  // The largest value that fits is still accepted.
  apply_config_override(cfg, "blocks", "4294967295");
  EXPECT_EQ(cfg.target_blocks, 4294967295u);
}

class ScenarioFileTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, in parallel under -j: a file
  // named after the running test keeps the cases from overwriting each other.
  std::string write_file(const std::string& content) {
    path_ = ::testing::TempDir() + "/scenario_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".scn";
    std::ofstream out(path_);
    out << content;
    return path_;
  }
  /// Loads `text` and expects an error that starts with the file, then
  /// `at_line` ("LINE: message"), and names `key`.
  void expect_rejected(const std::string& text, const std::string& at_line,
                       const std::string& key) {
    const auto path = write_file(text);
    try {
      load_scenario_file(path, kSmall);
      ADD_FAILURE() << "expected std::runtime_error for " << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(path + ":" + at_line, 0), 0u) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
  }
  std::string path_;
};

TEST_F(ScenarioFileTest, ParsesFullScenario) {
  const auto path = write_file(
      "# comment\n"
      "name = my_sweep\n"
      "description = a custom sweep\n"
      "seed_base = 4242\n"
      "base.protocol = ng\n"
      "base.microblock_interval = 5\n"
      "axis.max_microblock_size = 1000, 2000, 4000\n");
  const Scenario s = load_scenario_file(path, kSmall);
  EXPECT_EQ(s.name, "my_sweep");
  EXPECT_EQ(s.description, "a custom sweep");
  EXPECT_EQ(s.seed_base, 4242u);
  EXPECT_EQ(s.base.params.protocol, chain::Protocol::kBitcoinNG);
  EXPECT_EQ(s.base.num_nodes, kSmall.nodes);  // knobs flow into file scenarios
  ASSERT_EQ(s.axes.size(), 1u);
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[1].config.params.max_microblock_size, 2000u);
  EXPECT_DOUBLE_EQ(points[2].x, 4000.0);
  EXPECT_DOUBLE_EQ(points[0].config.params.microblock_interval, 5.0);
}

TEST_F(ScenarioFileTest, ProtocolAxisKeepsBaseOverrides) {
  // A protocol axis must not reset base.* knobs to preset defaults: the
  // override sets only the protocol, so matched-comparison sweeps compare
  // protocols at identical intervals/sizes.
  const auto path = write_file(
      "base.max_block_size = 20000\n"
      "base.block_interval = 10\n"
      "axis.protocol = bitcoin, ng\n");
  const auto points = expand(load_scenario_file(path, kSmall));
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    EXPECT_EQ(point.config.params.max_block_size, 20'000u);
    EXPECT_DOUBLE_EQ(point.config.params.block_interval, 10.0);
  }
  EXPECT_EQ(points[0].config.params.protocol, chain::Protocol::kBitcoin);
  EXPECT_EQ(points[1].config.params.protocol, chain::Protocol::kBitcoinNG);
}

TEST_F(ScenarioFileTest, TwoAxesExpandToGrid) {
  const auto path = write_file(
      "axis.block_interval = 5, 10\n"
      "axis.max_block_size = 1000, 2000, 4000\n");
  const auto points = expand(load_scenario_file(path, kSmall));
  EXPECT_EQ(points.size(), 6u);
}

TEST_F(ScenarioFileTest, RejectsUnknownKeyWithLineNumber) {
  const auto path = write_file("base.bogus = 1\n");
  try {
    load_scenario_file(path, kSmall);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":1:"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos) << e.what();
  }
}

TEST_F(ScenarioFileTest, RejectsIntegerThatDoesNotFitWithKeyAndLine) {
  const struct {
    const char* line;
    const char* key;
  } cases[] = {{"base.nodes = 4294967296\n", "'nodes'"},
               {"refine.coarse = 4294967298\n", "'refine.coarse'"}};
  for (const auto& c : cases) {
    const auto path = write_file(std::string("name = wide\n") + c.line);
    try {
      load_scenario_file(path, kSmall);
      ADD_FAILURE() << "expected std::runtime_error for " << c.line;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(":2: bad integer value"), std::string::npos) << what;
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
    }
  }
}

// A non-finite interval or drain time never lets a run reach its stop
// condition, so the loader refuses each one instead of hanging the sweep.
TEST_F(ScenarioFileTest, RejectsNanBlockInterval) {
  expect_rejected("name = x\nbase.block_interval = nan\n", "2: bad numeric value 'nan'",
                  "block_interval");
}

TEST_F(ScenarioFileTest, RejectsInfBlockInterval) {
  expect_rejected("name = x\nbase.block_interval = inf\n", "2: bad numeric value 'inf'",
                  "block_interval");
}

TEST_F(ScenarioFileTest, RejectsNanDrainTime) {
  expect_rejected("name = x\nbase.drain_time = nan\n", "2: bad numeric value 'nan'",
                  "drain_time");
}

TEST_F(ScenarioFileTest, RejectsInfDrainTime) {
  expect_rejected("name = x\nbase.drain_time = inf\n", "2: bad numeric value 'inf'",
                  "drain_time");
}

// Axis values are applied once at load, so a bad one is reported at its
// line like a bad base.* line, not when the sweep starts.
TEST_F(ScenarioFileTest, RejectsUnknownAxisKeyAtLoad) {
  expect_rejected("name = x\naxis.no_such_key = 1, 2\n", "2: unknown config key",
                  "no_such_key");
}

TEST_F(ScenarioFileTest, RejectsBadAxisValueAtLoad) {
  expect_rejected("name = x\naxis.max_block_size = 20000, 2e4\n",
                  "2: bad integer value '2e4'", "max_block_size");
}

TEST_F(ScenarioFileTest, RejectsMissingFileAndBadSyntax) {
  EXPECT_THROW(load_scenario_file("/nonexistent/path.scn", kSmall), std::runtime_error);
  const auto path = write_file("not a key value line\n");
  EXPECT_THROW(load_scenario_file(path, kSmall), std::runtime_error);
}

}  // namespace
}  // namespace bng::runner
