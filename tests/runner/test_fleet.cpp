// The fleet dispatcher: one dispatch loop over two kinds of worker slot —
// TCP endpoints (`--hosts`) and local children (`--procs`) — with every
// fault the robustness layer claims to survive injected for real: SIGKILL
// mid-job, a stopped (silent) worker, a severed connection, a
// hung-but-heartbeating worker, a dispatcher death resumed from the record
// cache. The acceptance bar for each is the same: the final artifacts are
// byte-identical to a serial in-process run.
//
// FLEET_TEST cases run once per slot kind: suite TcpFleet over fork()ed
// children of the test binary running serve_loop, suite LocalFleet over the
// children the dispatcher forks itself (no exec). Both inherit the test's
// scenario registry; the exec'd `ngsim --serve` and `ngsim --worker` paths
// are the same code and are covered by CI. Each case also reads the worker
// table to check that its fault really fired.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>

#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "runner/cache.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

Scenario make_fleet_mini(const RunKnobs&) {
  Scenario s;
  s.name = "fleet_mini";
  s.description = "tcp-fleet unit-test sweep";
  s.seed_base = 820;
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
  return s;
}

Scenario registered_fleet_mini() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_scenario("fleet_mini", "tcp-fleet unit-test sweep", make_fleet_mini);
  });
  auto s = make_scenario("fleet_mini", RunKnobs{16, 4});
  EXPECT_TRUE(s.has_value());
  return *s;
}

std::string artifacts(const SweepResult& r) {
  return to_json(r) + "\n--\n" + aggregate_csv(r) + "\n--\n" + seeds_csv(r);
}

/// Fresh per-test cache directory; wiped up front so a previous failed run
/// cannot leak entries in.
std::string fresh_cache_dir(const char* name) {
  const auto path =
      std::filesystem::temp_directory_path() / (std::string("bng_fleet_cache_") + name);
  std::filesystem::remove_all(path);
  return path.string();
}

/// A forked child running serve_loop on a kernel-assigned port. The parent
/// closes its copy of the listen fd, so the port dies with the child.
/// `supervised`: the child instead forks a fresh serve_loop child each time
/// the last one dies, so the endpoint always comes back.
struct ServeWorker {
  pid_t pid = -1;
  std::uint16_t port = 0;

  explicit ServeWorker(bool supervised = false) {
    int listen_fd = make_listen_socket(0, port);
    pid = ::fork();
    if (pid == 0) {
      ::setpgid(0, 0);
      while (supervised) {
        const pid_t child = ::fork();
        if (child == 0) break;
        ::waitpid(child, nullptr, 0);
      }
      serve_loop(listen_fd);
      ::_exit(0);
    }
    ::setpgid(pid, pid);
    ::close(listen_fd);
  }
  ServeWorker(const ServeWorker&) = delete;
  ServeWorker& operator=(const ServeWorker&) = delete;

  ~ServeWorker() { reap(); }

  void reap() {
    if (pid <= 0) return;
    ::kill(-pid, SIGCONT);  // a SIGSTOPped child cannot be waited on its SIGKILL
    ::kill(-pid, SIGKILL);  // the whole group: a supervisor and its child
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port); }
};

/// Fast-failure tuning: real sweeps wait seconds for a host to come back,
/// tests wait tens of milliseconds.
FleetTuning test_tuning() {
  FleetTuning t;
  t.connect_timeout_ms = 2000;
  t.heartbeat_ms = 50;
  t.heartbeat_timeout_ms = 2000;
  t.reconnect_base_ms = 25;
  t.reconnect_cap_ms = 100;
  t.max_reconnects = 2;
  return t;
}

SweepOptions fleet_options(std::uint32_t seeds, std::vector<std::string> hosts,
                           FleetTuning tuning) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.hosts = std::move(hosts);
  opt.fleet = tuning;
  return opt;
}

SweepOptions serial_options(std::uint32_t seeds) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.jobs = 1;
  return opt;
}

enum class SlotKind { kTcp, kLocal };

/// `n` workers of one slot kind, and sweep options that reach them with
/// test tuning and the worker table attached. TCP: `n` ServeWorkers, one
/// endpoint each. Local: nothing to start — the dispatcher forks its own.
struct Fleet {
  std::deque<ServeWorker> servers;
  obs::SweepTelemetry telemetry;
  SweepOptions opt;

  Fleet(SlotKind kind, std::uint32_t n, std::uint32_t seeds, bool supervised = false) {
    opt.seeds = seeds;
    opt.fleet = test_tuning();
    opt.telemetry = &telemetry;
    if (kind == SlotKind::kLocal) {
      opt.procs = n;
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      servers.emplace_back(supervised);
      opt.hosts.push_back(servers.back().endpoint());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  obs::WorkerTelemetry worker(std::size_t i) const {
    const auto rows = telemetry.workers();
    EXPECT_LT(i, rows.size()) << "no worker table row " << i;
    return i < rows.size() ? rows[i] : obs::WorkerTelemetry{};
  }

  /// The fault fired on slot 0: it is down at sweep end, or it came back
  /// through a reconnect (a local slot: a respawn). An untouched slot ends
  /// the sweep alive with no reconnects.
  bool worker0_was_lost() const {
    const obs::WorkerTelemetry w = worker(0);
    return !w.alive || w.reconnects > 0;
  }

  std::uint64_t records() const {
    std::uint64_t n = 0;
    for (const obs::WorkerTelemetry& w : telemetry.workers()) n += w.records;
    return n;
  }
};

/// True when this process has no child left, zombie or running.
bool no_children() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/// Defines a test body over one slot kind and runs it over both.
#define FLEET_TEST(name)                                  \
  void name##_over(SlotKind kind);                        \
  TEST(TcpFleet, name) { name##_over(SlotKind::kTcp); }   \
  TEST(LocalFleet, name) { name##_over(SlotKind::kLocal); } \
  void name##_over(SlotKind kind)

TEST(TcpFleet, BitIdenticalToSerialRun) {
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  ServeWorker a, b;
  EXPECT_EQ(serial, artifacts(run_sweep(
                        s, fleet_options(4, {a.endpoint(), b.endpoint()},
                                         test_tuning()))));
}

FLEET_TEST(SigkilledWorkerMidSweepIsRedispatchedBitIdentically) {
  // Slot 0 SIGKILLs itself on the first job it is handed, while slot 1
  // computes (a later job would race slot 1 draining the queue): the
  // dispatcher sees the connection drop and re-queues the in-flight job. A
  // TCP host is gone for good (its reconnect is refused and it is
  // abandoned); a local slot is respawned once, dies again if it gets a job,
  // and is abandoned. Either way slot 1 completes the sweep.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  Fleet fleet(kind, 2, 4);
  fleet.opt.fleet.max_reconnects = 1;  // no job loses slot 0 more than twice
  fleet.opt.test_kill_worker0_after_jobs = 0;
  EXPECT_EQ(serial, artifacts(run_sweep(s, fleet.opt)));
  EXPECT_TRUE(fleet.worker0_was_lost());
}

TEST(TcpFleet, StoppedWorkerIsDetectedByHeartbeatSilence) {
  // SIGSTOP freezes host0 before the sweep: its kernel still accepts the
  // TCP handshake, but no heartbeat ever arrives — the liveness timeout,
  // not an EOF, is what declares it dead.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(3)));
  ServeWorker a, b;
  ::kill(a.pid, SIGSTOP);
  FleetTuning tuning = test_tuning();
  tuning.heartbeat_timeout_ms = 400;
  tuning.max_reconnects = 1;
  EXPECT_EQ(serial, artifacts(run_sweep(
                        s, fleet_options(3, {a.endpoint(), b.endpoint()}, tuning))));
}

FLEET_TEST(SeveredConnectionHealsThroughReconnect) {
  // The dispatcher cuts slot 0's socket after its first record (a stand-in
  // for a mid-sweep network partition): a TCP worker drops back to its
  // accept loop, a local child is killed, and the backoff reconnect (a
  // local slot: respawn) restores the slot.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  Fleet fleet(kind, 2, 4);
  fleet.opt.test_sever_worker0_after_records = 1;
  EXPECT_EQ(serial, artifacts(run_sweep(s, fleet.opt)));
  EXPECT_TRUE(fleet.worker0_was_lost());
}

FLEET_TEST(HungWorkerIsCaughtByTheJobDeadlineNotTheHeartbeat) {
  // Slot 0 computes forever on its first job *while heartbeating* — only the
  // per-job deadline can tell this apart from a slow job. The job reruns on
  // the survivor; the hung slot is eventually abandoned.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(3)));
  Fleet fleet(kind, 2, 3);
  fleet.opt.fleet.heartbeat_timeout_ms = 800;  // heartbeats keep flowing: never trips
  fleet.opt.fleet.job_deadline_ms = 300;
  fleet.opt.fleet.max_reconnects = 1;
  fleet.opt.test_hang_worker0_after_jobs = 0;
  EXPECT_EQ(serial, artifacts(run_sweep(s, fleet.opt)));
  EXPECT_TRUE(fleet.worker0_was_lost());
  EXPECT_EQ(fleet.worker(0).records, 0u);
}

FLEET_TEST(JobExhaustingItsAttemptCapFailsTheSweepWithItsIdentity) {
  // The worker always comes back — a supervisor respawns the TCP server,
  // the dispatcher respawns a local slot — and always dies on its first
  // job, so the same doomed job keeps finding a fresh worker to crash. After
  // max_job_attempts the sweep must fail naming the job — not hang waiting
  // for a record that can never arrive.
  const Scenario s = registered_fleet_mini();  // before the fork: workers
                                               // inherit the registration
  Fleet fleet(kind, 1, 2, /*supervised=*/true);
  fleet.opt.fleet.max_reconnects = 10;     // the worker always comes back ...
  fleet.opt.test_kill_worker0_after_jobs = 0;  // ... and always dies on its 1st job
  try {
    run_sweep(s, fleet.opt);
    FAIL() << "expected the attempt cap to fail the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("giving up"), std::string::npos) << what;
    EXPECT_NE(what.find("point"), std::string::npos) << what;
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
  }
  EXPECT_GE(fleet.worker(0).reconnects, 2u);  // back for the 2nd and 3rd attempts
}

FLEET_TEST(AllWorkersLostFailsFastInsteadOfHanging) {
  const Scenario s = registered_fleet_mini();
  Fleet fleet(kind, 1, 2);
  fleet.opt.fleet.max_reconnects = 0;  // one life only
  fleet.opt.test_kill_worker0_after_jobs = 0;
  try {
    run_sweep(s, fleet.opt);
    FAIL() << "expected a no-live-workers failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no live workers"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fleet.worker(0).abandoned);
}

TEST(TcpFleet, ZeroReachableHostsFailsFastNamingEachEndpoint) {
  // Nothing is listening on either endpoint: the sweep must fail during the
  // initial connect pass — before any dispatch state exists — and the error
  // must name every endpoint with its connect errno, not just "no workers".
  const Scenario s = registered_fleet_mini();
  FleetTuning tuning = test_tuning();
  tuning.connect_timeout_ms = 500;
  try {
    run_sweep(s, fleet_options(2, {"127.0.0.1:1", "127.0.0.1:2"}, tuning));
    FAIL() << "expected a no-reachable-endpoint failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no --hosts endpoint is reachable"), std::string::npos)
        << what;
    EXPECT_NE(what.find("127.0.0.1:1"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1:2"), std::string::npos) << what;
    EXPECT_NE(what.find("refused"), std::string::npos) << what;  // errno text
  }
}

FLEET_TEST(TelemetryAccountsForEveryRecordAndWorker) {
  // The dispatcher's telemetry is bookkeeping over the same record stream the
  // artifacts are built from, so its totals must balance exactly: every job
  // delivered, every record attributed to the worker that computed it.
  const Scenario s = registered_fleet_mini();
  Fleet fleet(kind, 2, 4);
  const SweepResult result = run_sweep(s, fleet.opt);
  const obs::SweepTelemetry& telemetry = fleet.telemetry;

  const std::size_t n_jobs = result.points.size() * 4;
  EXPECT_EQ(telemetry.total_jobs(), n_jobs);
  EXPECT_EQ(telemetry.records_done(), n_jobs);

  const auto workers = telemetry.workers();
  ASSERT_EQ(workers.size(), 2u);
  std::uint64_t attributed = 0;
  for (const auto& w : workers) {
    EXPECT_TRUE(w.alive) << w.endpoint;
    EXPECT_FALSE(w.abandoned) << w.endpoint;
    EXPECT_EQ(w.inflight, 0u) << w.endpoint;
    attributed += w.records;
  }
  EXPECT_EQ(attributed, n_jobs);

  const std::string json = telemetry.to_json(s.name, /*wall_s=*/1.0);
  EXPECT_NE(json.find("\"workers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records_done\": " + std::to_string(n_jobs)),
            std::string::npos)
      << json;
}

FLEET_TEST(DispatcherDeathIsResumedFromTheCacheBitIdentically) {
  // The dispatcher "dies" (deterministic stand-in: the interrupt hook fires
  // after 3 records, unwinding exactly like SIGTERM) mid-sweep with a cache
  // attached. TCP workers outlive it in their accept loops; local children
  // are killed with it and respawned by the rerun. Rerunning the sweep
  // against the same cache dispatches only the missing jobs, and the
  // artifacts come out byte-identical.
  const Scenario s = registered_fleet_mini();
  const std::string serial = artifacts(run_sweep(s, serial_options(4)));
  const std::string dir =
      fresh_cache_dir(kind == SlotKind::kTcp ? "resume" : "resume_local");

  Fleet fleet(kind, 2, 4);
  RunCache cache(dir);
  SweepOptions opt = fleet.opt;
  opt.cache = &cache;
  opt.test_interrupt_after_records = 3;
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_THROW(run_sweep(s, opt), SweepInterrupted);
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_EQ(fleet.records(), 3u);  // the interrupt landed on the 3rd record

  const RunCache::Counters partial = cache.counters();
  EXPECT_GE(partial.stores, 3u);  // everything acknowledged got stored
  EXPECT_LT(partial.stores, 8u);

  RunCache rerun(dir);
  SweepOptions resume = fleet.opt;
  resume.cache = &rerun;
  EXPECT_EQ(serial, artifacts(run_sweep(s, resume)));
  EXPECT_EQ(rerun.counters().hits, partial.stores);
}

TEST(TcpFleet, FullyCachedSweepNeedsNoReachableHost) {
  // Lookups run at the dispatcher before any job is sent: when the cache
  // holds every record, the sweep completes without connecting to a single
  // endpoint — here, endpoints nothing listens on.
  const Scenario s = registered_fleet_mini();
  RunCache cache(fresh_cache_dir("warm"));
  SweepOptions cold = serial_options(2);
  cold.cache = &cache;
  const std::string serial = artifacts(run_sweep(s, cold));

  FleetTuning tuning = test_tuning();
  tuning.connect_timeout_ms = 500;
  SweepOptions warm = fleet_options(2, {"127.0.0.1:1", "127.0.0.1:2"}, tuning);
  warm.cache = &cache;
  EXPECT_EQ(serial, artifacts(run_sweep(s, warm)));
  EXPECT_EQ(cache.counters().hits, 4u);  // 2 points x 2 seeds
}

TEST(TcpFleet, ProgrammaticScenarioIsRejectedUpFront) {
  Scenario s = registered_fleet_mini();
  s.source.reset();
  EXPECT_THROW(
      run_sweep(s, fleet_options(2, {"127.0.0.1:9"}, test_tuning())),
      std::invalid_argument);
}

FLEET_TEST(TracedPlanIsRejectedUpFront) {
  // A decision trace would be recorded in the workers' address spaces, out
  // of the dispatcher's reach: the fleet refuses a traced plan before it
  // sets up a single slot.
  const Scenario s = registered_fleet_mini();
  const std::vector<SweepPoint> points = expand(s);
  ExecutionPlan plan{s, points, 1};
  plan.trace_mask = obs::kTraceBlocks;
  Fleet fleet(kind, 1, 1);
  const std::unique_ptr<Executor> executor =
      make_sweep_executor(fleet.opt, &fleet.telemetry);
  EXPECT_THROW(executor->run(plan, [](RunRecord) {}), std::invalid_argument);
  EXPECT_TRUE(fleet.telemetry.workers().empty());
}

TEST(LocalFleet, NoChildIsLeftBehind) {
  // Every local child is reaped on every way out of a sweep: a success, a
  // failure at the attempt cap, an interrupt, a hung child killed at its
  // deadline, and a hung child whose job a speculative copy finished (it is
  // still computing at sweep end).
  const Scenario s = registered_fleet_mini();
  ASSERT_TRUE(no_children());

  Fleet ok(SlotKind::kLocal, 2, 2);
  run_sweep(s, ok.opt);
  EXPECT_TRUE(no_children()) << "after a successful sweep";

  Fleet capped(SlotKind::kLocal, 1, 2);
  capped.opt.fleet.max_reconnects = 10;
  capped.opt.test_kill_worker0_after_jobs = 0;
  EXPECT_THROW(run_sweep(s, capped.opt), std::runtime_error);
  EXPECT_TRUE(no_children()) << "after the attempt cap failed the sweep";

  Fleet interrupted(SlotKind::kLocal, 2, 2);
  interrupted.opt.test_interrupt_after_records = 1;
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_THROW(run_sweep(s, interrupted.opt), SweepInterrupted);
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_TRUE(no_children()) << "after an interrupt";

  Fleet deadline(SlotKind::kLocal, 2, 2);
  deadline.opt.fleet.job_deadline_ms = 300;
  deadline.opt.test_hang_worker0_after_jobs = 0;
  run_sweep(s, deadline.opt);
  EXPECT_TRUE(deadline.worker0_was_lost());
  EXPECT_EQ(deadline.worker(0).records, 0u);
  EXPECT_TRUE(no_children()) << "after a hung child hit its deadline";

  Fleet speculated(SlotKind::kLocal, 2, 2);
  speculated.opt.fleet.straggler_after_ms = 100;
  speculated.opt.test_hang_worker0_after_jobs = 0;
  run_sweep(s, speculated.opt);
  EXPECT_EQ(speculated.worker(1).speculation_wins, 1u);
  EXPECT_TRUE(no_children()) << "after a speculative copy won the race";
}

TEST(FleetTuning, UnmeetableLivenessIsRejectedBeforeAnyWorkerStarts) {
  // A worker told not to heartbeat, or to heartbeat less often than the
  // timeout, would be declared dead during any long job. Both slot kinds
  // reject such tunings up front: no child is forked, no host is dialled
  // (nothing listens on the endpoint, so a connect would fail differently).
  const Scenario s = registered_fleet_mini();
  FleetTuning silent = test_tuning();
  silent.heartbeat_ms = 0;
  FleetTuning late = test_tuning();
  late.heartbeat_ms = 1000;
  late.heartbeat_timeout_ms = 1000;
  for (const FleetTuning& tuning : {silent, late}) {
    const std::string values = "--heartbeat-ms " + std::to_string(tuning.heartbeat_ms) +
                               ", --heartbeat-timeout-ms " +
                               std::to_string(tuning.heartbeat_timeout_ms);
    try {
      check_liveness_tuning(tuning);
      FAIL() << "accepted " << values;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(values), std::string::npos) << e.what();
    }
    SweepOptions local = serial_options(2);
    local.procs = 2;
    local.fleet = tuning;
    EXPECT_THROW(run_sweep(s, local), std::invalid_argument) << values;
    EXPECT_TRUE(no_children()) << values;
    EXPECT_THROW(run_sweep(s, fleet_options(2, {"127.0.0.1:1"}, tuning)),
                 std::invalid_argument)
        << values;
  }
  FleetTuning meetable = test_tuning();
  meetable.heartbeat_timeout_ms = meetable.heartbeat_ms + 1;
  EXPECT_NO_THROW(check_liveness_tuning(meetable));
}

}  // namespace
}  // namespace bng::runner
