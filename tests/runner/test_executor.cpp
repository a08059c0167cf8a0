// The pluggable execution substrate: local worker processes (`--procs`, the
// fleet's local slots) must be indistinguishable — byte for byte — from the
// in-process thread pool, for any width, including across worker crashes.
//
// These tests run the fork-only worker mode (SweepOptions.worker_argv
// empty): children inherit the test binary's scenario registry and run
// worker_session directly, exercising the full handshake / job / record
// framing over real sockets and real processes. The exec'd `ngsim --worker`
// path is the same protocol and is covered by CI's --procs vs --jobs diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/telemetry.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"

namespace bng::runner {
namespace {

/// A 2-point Bitcoin mini sweep, registered so process-pool workers can
/// rebuild it from its name.
Scenario make_exec_mini(const RunKnobs&) {
  Scenario s;
  s.name = "exec_mini";
  s.description = "process-pool unit-test sweep";
  s.seed_base = 540;
  s.base.num_nodes = 16;
  s.base.target_blocks = 4;
  s.base.drain_time = 20;
  s.base.params = chain::Params::bitcoin();
  s.base.params.max_block_size = 4000;
  Axis axis{"block_interval", {}};
  for (double interval : {8.0, 15.0}) {
    axis.values.push_back(AxisValue{std::to_string(interval) + "s", interval,
                                    [interval](sim::ExperimentConfig& cfg) {
                                      cfg.params.block_interval = interval;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment&, NamedValues& v) {
    // Hooks are lambdas and cannot cross the pipe; they survive because the
    // worker re-instantiates the scenario from the registry. This marker
    // proves the worker-side hook actually ran.
    v.emplace_back("hook_ran", 1.0);
  };
  return s;
}

Scenario registered_mini() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_scenario("exec_mini", "process-pool unit-test sweep", make_exec_mini);
  });
  auto s = make_scenario("exec_mini", RunKnobs{16, 4});
  EXPECT_TRUE(s.has_value());
  return *s;
}

/// A 2-point NG mini sweep, signature checks off and then on, registered so
/// process-pool workers can rebuild it from its name.
Scenario make_exec_ng_mini(const RunKnobs&) {
  Scenario s;
  s.name = "exec_ng_mini";
  s.description = "signature-count unit-test sweep";
  s.seed_base = 541;
  s.base.num_nodes = 16;
  s.base.target_blocks = 6;
  s.base.drain_time = 5;
  s.base.params = chain::Params::bitcoin_ng();
  s.base.params.block_interval = 20;
  s.base.params.microblock_interval = 1;
  s.base.params.max_microblock_size = 1666;  // small enough to relay within the run
  Axis axis{"verify_signatures", {}};
  for (const bool verify : {false, true}) {
    axis.values.push_back(AxisValue{verify ? "on" : "off", verify ? 1.0 : 0.0,
                                    [verify](sim::ExperimentConfig& cfg) {
                                      cfg.verify_signatures = verify;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

Scenario registered_ng_mini() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_scenario("exec_ng_mini", "signature-count unit-test sweep", make_exec_ng_mini);
  });
  auto s = make_scenario("exec_ng_mini", RunKnobs{16, 6});
  EXPECT_TRUE(s.has_value());
  return *s;
}

SweepOptions thread_options(std::uint32_t seeds, std::uint32_t jobs) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.jobs = jobs;
  return opt;
}

SweepOptions proc_options(std::uint32_t seeds, std::uint32_t procs) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.procs = procs;
  return opt;
}

/// The three emitted artifacts, concatenated: if these match, every digest,
/// metric bit, and aggregate matched.
std::string artifacts(const SweepResult& r) {
  return to_json(r) + "\n--\n" + aggregate_csv(r) + "\n--\n" + seeds_csv(r);
}

TEST(ProcessPool, BitIdenticalToThreadsAtEveryWidth) {
  const Scenario s = registered_mini();
  const std::string serial = artifacts(run_sweep(s, thread_options(4, 1)));
  EXPECT_EQ(serial, artifacts(run_sweep(s, thread_options(4, 4))));
  for (std::uint32_t procs : {1u, 2u, 4u}) {
    EXPECT_EQ(serial, artifacts(run_sweep(s, proc_options(4, procs))))
        << "--procs " << procs << " diverged from --jobs 1";
  }
}

TEST(ProcessPool, SigkilledWorkerIsRedispatchedBitIdentically) {
  // Acceptance: a worker SIGKILLed mid-sweep is detected (socket EOF), its
  // in-flight job re-dispatched, a replacement spawned, and the final
  // output stays bit-identical to the serial run.
  const Scenario s = registered_mini();
  const std::string serial = artifacts(run_sweep(s, thread_options(6, 1)));

  SweepOptions killer = proc_options(6, 2);
  killer.test_kill_worker0_after_jobs = 1;  // dies when handed its 2nd job
  EXPECT_EQ(serial, artifacts(run_sweep(s, killer)));
}

TEST(ProcessPool, InlineScenarioTextShipsToWorkers) {
  // A scenario-file scenario ships as raw text and is re-parsed by the
  // worker — no shared filesystem, no registry entry.
  const std::string text =
      "name = inline_mini\n"
      "seed_base = 41\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 9\n"
      "base.max_block_size = 4000\n"
      "axis.nodes = 12, 16\n";
  const Scenario s = load_scenario_string(text, "<test>", RunKnobs{16, 3});
  ASSERT_TRUE(s.source.has_value());
  EXPECT_EQ(s.source->kind, ScenarioSource::Kind::kInline);
  EXPECT_EQ(artifacts(run_sweep(s, thread_options(3, 2))),
            artifacts(run_sweep(s, proc_options(3, 2))));
}

TEST(ProcessPool, ProgrammaticScenarioIsRejectedUpFront) {
  Scenario s = registered_mini();
  s.source.reset();  // hand-built scenarios have no shippable form
  EXPECT_THROW(run_sweep(s, proc_options(2, 2)), std::invalid_argument);
}

TEST(ProcessPool, WorkerJobFailurePropagates) {
  // A job that throws inside the worker comes back as an error frame and
  // fails the sweep with the original message, after the pool quiesces.
  const std::string text =
      "name = bad\n"
      "base.adversary = selfish\n"
      "base.adversary_node = 99\n";  // out of range -> Experiment::build throws
  const Scenario s = load_scenario_string(text, "<test>", RunKnobs{16, 2});
  try {
    run_sweep(s, proc_options(1, 1));
    FAIL() << "expected the worker's failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos) << e.what();
  }
}

TEST(ProcessPool, AttackScenarioMatchesThreadsIncludingAttackerReports) {
  // Adversary runs carry the structured attacker report through the codec;
  // the JSON artifact embeds it, so byte-equality covers that path too.
  auto s = make_scenario("attack_smoke", RunKnobs{24, 8});
  ASSERT_TRUE(s.has_value());
  const auto threads = run_sweep(*s, thread_options(2, 2));
  const auto procs = run_sweep(*s, proc_options(2, 4));
  ASSERT_FALSE(threads.points.empty());
  ASSERT_TRUE(threads.points[0].seeds[0].attacker.has_value());
  EXPECT_EQ(artifacts(threads), artifacts(procs));
}

TEST(SweepTelemetry, PhaseSplitReportedInProcessAndKeptOutOfRecords) {
  // --stats-json attaches a telemetry sink; the records must not notice it.
  const Scenario s = registered_mini();
  const std::string plain = artifacts(run_sweep(s, thread_options(2, 2)));

  obs::SweepTelemetry threads;
  SweepOptions with_stats = thread_options(2, 2);
  with_stats.telemetry = &threads;
  EXPECT_EQ(plain, artifacts(run_sweep(s, with_stats)));
  const std::string json = threads.to_json(s.name, /*wall_s=*/1.0);
  EXPECT_NE(json.find("\"phases\": {\"jobs\": 4, \"simulate_ms\": "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"metrics_ms\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"workload_ms\": "), std::string::npos) << json;

  // Worker processes run their experiments in other address spaces and
  // report no phase split, as with events_executed.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(2, 2);
  proc_stats.telemetry = &procs;
  EXPECT_EQ(plain, artifacts(run_sweep(s, proc_stats)));
  EXPECT_EQ(procs.to_json(s.name, 1.0).find("\"phases\""), std::string::npos);
}

TEST(SweepTelemetry, BuildPhaseAndPoolShareReportedInProcessAndKeptOutOfRecords) {
  // A fig7-shaped one-block run: 60 kB Bitcoin blocks and the pool sized for
  // 30 of them (as perfbench's set-up runs pin it). Its one block reads a
  // block's worth of transactions, so the pool builds only that much.
  const std::string text =
      "name = fig7_one_block\n"
      "seed_base = 71\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 36\n"
      "base.max_block_size = 60000\n"
      "base.pool_size = 8560\n"
      "base.drain_time = 0\n";
  const Scenario s = load_scenario_string(text, "<test>", RunKnobs{200, 1});
  const std::string plain = artifacts(run_sweep(s, thread_options(1, 1)));
  const auto number = [](const std::string& json, const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    return at == std::string::npos ? -1.0 : std::stod(json.substr(at + key.size() + 4));
  };

  obs::SweepTelemetry threads;
  SweepOptions with_stats = thread_options(1, 1);
  with_stats.telemetry = &threads;
  EXPECT_EQ(plain, artifacts(run_sweep(s, with_stats)));
  const std::string json = threads.to_json(s.name, 1.0);
  const std::size_t phases = json.find("\"phases\": {");
  ASSERT_NE(phases, std::string::npos) << json;
  const std::string phase_json = json.substr(phases, json.find('}', phases) - phases);
  const double build_ms = number(phase_json, "build_ms");
  EXPECT_GT(build_ms, 0.0) << json;
  EXPECT_LE(build_ms, number(phase_json, "simulate_ms")) << json;
  const std::size_t pool = json.find("\"pool\": {");
  ASSERT_NE(pool, std::string::npos) << json;
  const std::string pool_json = json.substr(pool, json.find('}', pool) - pool);
  EXPECT_EQ(number(pool_json, "txs"), 8560.0) << json;
  const double built = number(pool_json, "built");
  EXPECT_GT(built, 0.0) << json;
  EXPECT_LT(built, 8560.0) << json;

  // Worker processes build their pools in other address spaces: neither
  // section appears.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(1, 1);
  proc_stats.telemetry = &procs;
  EXPECT_EQ(plain, artifacts(run_sweep(s, proc_stats)));
  const std::string proc_json = procs.to_json(s.name, 1.0);
  EXPECT_EQ(proc_json.find("\"build_ms\""), std::string::npos) << proc_json;
  EXPECT_EQ(proc_json.find("\"pool\""), std::string::npos) << proc_json;
}

TEST(SweepTelemetry, ElidedDeliveriesReportedBesideEventsInProcess) {
  const Scenario s = registered_mini();
  const auto field = [](const std::string& json, const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    return at == std::string::npos ? 0ull
                                   : std::stoull(json.substr(at + key.size() + 4));
  };
  obs::SweepTelemetry threads;
  SweepOptions with_stats = thread_options(2, 2);
  with_stats.telemetry = &threads;
  (void)run_sweep(s, with_stats);
  const std::string json = threads.to_json(s.name, 1.0);
  EXPECT_GT(field(json, "events_executed"), 0u);
  EXPECT_GT(field(json, "deliveries_elided"), 0u);

  // Worker processes report neither count.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(2, 2);
  proc_stats.telemetry = &procs;
  (void)run_sweep(s, proc_stats);
  const std::string proc_json = procs.to_json(s.name, 1.0);
  EXPECT_EQ(field(proc_json, "events_executed"), 0u);
  EXPECT_EQ(field(proc_json, "deliveries_elided"), 0u);
}

TEST(SweepTelemetry, MessageCountsByKindReportedInProcessAndKeptOutOfRecords) {
  const Scenario s = registered_mini();
  constexpr std::uint32_t kSeeds = 2;
  const std::string plain = artifacts(run_sweep(s, thread_options(kSeeds, 2)));
  const auto count = [](const std::string& json, const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
    return at == std::string::npos ? 0ull
                                   : std::stoull(json.substr(at + key.size() + 4));
  };

  obs::SweepTelemetry threads;
  SweepOptions with_stats = thread_options(kSeeds, 2);
  with_stats.telemetry = &threads;
  EXPECT_EQ(plain, artifacts(run_sweep(s, with_stats)));
  const std::string json = threads.to_json(s.name, 1.0);
  const std::size_t messages = json.find("\"messages\": {");
  ASSERT_NE(messages, std::string::npos) << json;
  const std::string counts = json.substr(messages, json.find('}', messages) - messages);
  const auto inv = count(counts, "inv");
  const auto getdata = count(counts, "getdata");
  const auto block = count(counts, "block");
  const auto ignored = count(counts, "ignored");
  EXPECT_GT(inv, 0u);
  EXPECT_GT(block, 0u);
  EXPECT_LE(block, getdata);

  // The kinds add up to every message the same jobs charge to their links.
  std::uint64_t sent = 0;
  const std::vector<SweepPoint> points = expand(s);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::uint32_t ordinal = 0; ordinal < kSeeds; ++ordinal) {
      sim::ExperimentConfig cfg = points[p].config;
      cfg.seed = job_seed(s.seed_base, p, ordinal);
      sim::Experiment exp(std::move(cfg));
      exp.run();
      sent += exp.network().messages_sent();
    }
  }
  EXPECT_EQ(inv + getdata + block + ignored, sent);

  // Worker processes count in other address spaces: no section at all.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(kSeeds, 2);
  proc_stats.telemetry = &procs;
  EXPECT_EQ(plain, artifacts(run_sweep(s, proc_stats)));
  EXPECT_EQ(procs.to_json(s.name, 1.0).find("\"messages\""), std::string::npos);
}

TEST(SweepTelemetry, SignatureCountsReportedInProcessAndKeptOutOfRecords) {
  const Scenario s = registered_ng_mini();
  constexpr std::uint32_t kSeeds = 2;
  const auto signatures = [](const obs::SweepTelemetry& telemetry) {
    const std::string json = telemetry.to_json("s", 1.0);
    const std::size_t at = json.find("\"signatures\": {");
    EXPECT_NE(at, std::string::npos) << json;
    unsigned long long made = 0, checked = 0;
    if (at != std::string::npos) {
      EXPECT_EQ(std::sscanf(json.c_str() + at,
                            "\"signatures\": {\"signed\": %llu, \"verified\": %llu}", &made,
                            &checked),
                2)
          << json;
    }
    return std::pair{made, checked};
  };
  // The leader signs each microblock once: the count is the jobs' microblocks.
  const auto microblocks = [&s](const Scenario& sweep) {
    std::uint64_t n = 0;
    const std::vector<SweepPoint> points = expand(sweep);
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::uint32_t ordinal = 0; ordinal < kSeeds; ++ordinal) {
        sim::ExperimentConfig cfg = points[p].config;
        cfg.seed = job_seed(s.seed_base, p, ordinal);
        sim::Experiment exp(std::move(cfg));
        exp.run();
        n += exp.trace().micro_blocks();
      }
    }
    return n;
  };

  // Checks off: signatures made, none verified.
  Scenario unchecked = s;
  unchecked.axes[0].values.resize(1);
  obs::SweepTelemetry off;
  SweepOptions off_stats = thread_options(kSeeds, 2);
  off_stats.telemetry = &off;
  (void)run_sweep(unchecked, off_stats);
  const auto [off_signed, off_verified] = signatures(off);
  EXPECT_GT(off_signed, 0u);
  EXPECT_EQ(off_signed, microblocks(unchecked));
  EXPECT_EQ(off_verified, 0u);

  // Both points: the same records with and without telemetry, and the
  // receivers' checks counted.
  const std::string plain = artifacts(run_sweep(s, thread_options(kSeeds, 2)));
  obs::SweepTelemetry both;
  SweepOptions with_stats = thread_options(kSeeds, 2);
  with_stats.telemetry = &both;
  EXPECT_EQ(plain, artifacts(run_sweep(s, with_stats)));
  const auto [all_signed, all_verified] = signatures(both);
  EXPECT_EQ(all_signed, microblocks(s));
  EXPECT_GT(all_verified, all_signed);  // each microblock reaches many nodes

  // Worker processes count in other address spaces: no section at all.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(kSeeds, 2);
  proc_stats.telemetry = &procs;
  EXPECT_EQ(plain, artifacts(run_sweep(s, proc_stats)));
  EXPECT_EQ(procs.to_json(s.name, 1.0).find("\"signatures\""), std::string::npos);
}

}  // namespace
}  // namespace bng::runner
