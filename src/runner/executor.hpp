// Executor: the pluggable dispatch substrate under the sweep engine.
//
// run_sweep expands a scenario into (point × seed) jobs and hands them to an
// Executor; the executor runs every job and streams back one RunRecord per
// job. Two implementations ship today:
//
//  * ThreadPoolExecutor — the original in-process worker threads;
//  * ProcessPoolExecutor — fork/exec'd `ngsim --worker` children speaking
//    the length-prefixed record protocol of runner/record_codec.hpp over a
//    socketpair, with crash detection and job re-dispatch.
//
// Both are pure functions of (scenario, points): records are delivered in
// arbitrary order but carry their own (point, ordinal) identity, and the
// caller merges them into deterministic slots — so any executor at any
// width yields bit-identical sweep output. A multi-machine dispatcher is
// "ProcessPoolExecutor over a socket" and slots in the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::obs {
class SweepTelemetry;
class TraceRing;
}

namespace bng::runner {

/// What an executor needs to run a sweep. `points` must be expand(scenario)
/// — process-pool workers re-expand from scenario.source and the two grids
/// must agree.
struct ExecutionPlan {
  const Scenario& scenario;
  const std::vector<SweepPoint>& points;
  std::uint32_t seeds = 1;
  bool share_workload = true;
  /// Jobs already completed in an earlier (crashed, resumed) run, indexed by
  /// point * seeds + ordinal — recovered from a journal. Null or empty:
  /// nothing done. Executors skip these without running or delivering them.
  const std::vector<std::uint8_t>* done = nullptr;
  /// Decision-trace categories (obs/trace_ring.hpp bit mask). 0 (default):
  /// tracing fully disabled — no ring is allocated and run_job receives
  /// null. Non-zero is only supported by the in-process thread executor;
  /// process-pool and fleet executors reject it (the rings would live in
  /// other processes).
  std::uint32_t trace_mask = 0;
  /// Called once per traced job, after its record is delivered, with the
  /// job's ring (drained after the call returns). May run on worker threads
  /// concurrently — the sink synchronizes its own output.
  std::function<void(std::uint32_t point, std::uint32_t ordinal,
                     const obs::TraceRing& ring)>
      trace_sink{};
  /// Optional sweep telemetry. The in-process thread executor feeds it each
  /// job's executed-event count (for the events/sec rate in --progress and
  /// --stats-json) and its simulate/metrics phase split; process/fleet
  /// executors ignore it — their experiments run in other address spaces.
  obs::SweepTelemetry* telemetry = nullptr;
};

/// Whether the plan says this job already has its record (resume).
inline bool plan_job_done(const ExecutionPlan& plan, std::size_t job) {
  return plan.done != nullptr && job < plan.done->size() && (*plan.done)[job] != 0;
}

/// Cooperative cancellation for a sweep in flight. A signal handler (ngsim's
/// SIGINT/SIGTERM) or a test sets the flag; every executor polls it between
/// dispatches and aborts by throwing SweepInterrupted after quiescing its
/// workers — so RAII up the stack (the resume journal above all) flushes
/// cleanly instead of the process dying with completed records in memory.
std::atomic<bool>& sweep_interrupt_flag();

struct SweepInterrupted : std::runtime_error {
  SweepInterrupted() : std::runtime_error("sweep interrupted") {}
};

/// Throw SweepInterrupted if the flag is set (executor dispatch loops call
/// this once per iteration).
void throw_if_interrupted();

/// Receives each finished record exactly once, possibly from worker threads
/// (never concurrently for the same job; jobs write disjoint slots).
using RecordSink = std::function<void(RunRecord)>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Run every (point × seed) job, delivering each record through `sink`.
  /// Returns the parallel width actually used (threads or processes).
  /// Throws (after quiescing its workers) if any job fails.
  virtual std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) = 0;
};

/// In-process pool of `jobs` worker threads (0 = hardware concurrency).
std::unique_ptr<Executor> make_thread_executor(std::uint32_t jobs);

struct ProcessPoolOptions {
  /// Worker process count (>= 1; clamped to the job count).
  std::uint32_t procs = 1;
  /// argv prefix to exec for each worker, e.g. {"/path/to/ngsim",
  /// "--worker"}. Empty: fork without exec and run worker_main in the child
  /// directly (used by tests; inherits the parent's scenario registry).
  std::vector<std::string> worker_argv;
  /// Test hook: deliver a kill order to the first worker's handshake — it
  /// SIGKILLs itself when handed its (n+1)-th job, exercising crash
  /// detection and re-dispatch. Negative: disabled.
  int kill_worker0_after_jobs = -1;
};

std::unique_ptr<Executor> make_process_pool_executor(ProcessPoolOptions options);

/// Run one job. The shared pool may be null (the experiment then builds its
/// own workload). Pure function of its arguments — every executor and the
/// worker process funnel through this. `trace` (optional) receives the
/// experiment's decision trace; recording is observational, so the record —
/// digest included — is bit-identical with and without it.
/// `telemetry` (optional) receives the job's simulate/metrics phase split
/// (cache hits report none) and the parallel engine's live efficiency
/// figures when the config runs sharded; like tracing it never touches the
/// record.
RunRecord run_job(const Scenario& scenario, const SweepPoint& point,
                  std::uint32_t point_index, std::uint32_t ordinal,
                  std::shared_ptr<const sim::PrebuiltWorkload> pool,
                  obs::TraceRing* trace = nullptr,
                  std::uint64_t* events_executed = nullptr,
                  obs::SweepTelemetry* telemetry = nullptr);

/// Entry point of the `ngsim --worker` mode: speak the worker protocol over
/// the given fds (stdin/stdout when exec'd) until EOF. Returns the process
/// exit code. Never throws; fatal errors are reported as 'E' frames.
int worker_main(int in_fd, int out_fd);

// A third executor — the TCP fleet dispatcher behind `ngsim --hosts` — lives
// in runner/tcp_fleet.hpp; it implements this same interface over remote
// `ngsim --serve` workers with heartbeat liveness and per-job deadlines.

}  // namespace bng::runner
