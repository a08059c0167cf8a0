// The pluggable execution substrate: the process pool must be
// indistinguishable — byte for byte — from the in-process thread pool, for
// any width, including across worker crashes.
//
// These tests run the fork-only worker mode (ProcessPoolOptions.worker_argv
// empty): children inherit the test binary's scenario registry and run
// worker_main directly, exercising the full handshake / job / record framing
// over real sockets and real processes. The exec'd `ngsim --worker` path is
// the same protocol and is covered by CI's --procs vs --jobs diff.
#include <gtest/gtest.h>

#include <mutex>

#include "obs/telemetry.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

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

  // Worker processes run their experiments in other address spaces and
  // report no phase split, as with events_executed.
  obs::SweepTelemetry procs;
  SweepOptions proc_stats = proc_options(2, 2);
  proc_stats.telemetry = &procs;
  EXPECT_EQ(plain, artifacts(run_sweep(s, proc_stats)));
  EXPECT_EQ(procs.to_json(s.name, 1.0).find("\"phases\""), std::string::npos);
}

}  // namespace
}  // namespace bng::runner
