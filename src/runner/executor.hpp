// Executor: the pluggable dispatch substrate under the sweep engine.
//
// run_sweep expands a scenario into (point × seed) jobs and hands them to an
// Executor; the executor runs every job and streams back one RunRecord per
// job. Two implementations ship:
//
//  * ThreadPoolExecutor — in-process worker threads (`--jobs`);
//  * FleetExecutor (runner/fleet.hpp) — out-of-process workers speaking the
//    worker protocol, over socketpairs to local children (`--procs`) or TCP
//    to remote `ngsim --serve` workers (`--hosts`), with heartbeat liveness,
//    job deadlines and bounded re-dispatch.
//
// Both are pure functions of (scenario, points): records are delivered in
// arbitrary order but carry their own (point, ordinal) identity, and the
// caller merges them into deterministic slots — so any executor at any
// width yields bit-identical sweep output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::obs {
class SweepTelemetry;
class TraceRing;
}

namespace bng::runner {

/// What an executor needs to run a sweep. `points` must be expand(scenario)
/// — fleet workers re-expand from scenario.source and the two grids must
/// agree.
struct ExecutionPlan {
  const Scenario& scenario;
  const std::vector<SweepPoint>& points;
  std::uint32_t seeds = 1;
  bool share_workload = true;
  /// Jobs whose records the caller already holds — answered from the record
  /// cache, or evaluated by an earlier adaptive wave — indexed by
  /// point * seeds + ordinal. Null or empty: nothing done. Executors skip
  /// these without running or delivering them.
  const std::vector<std::uint8_t>* done = nullptr;
  /// Decision-trace categories (obs/trace_ring.hpp bit mask). 0 (default):
  /// tracing fully disabled — no ring is allocated and run_job receives
  /// null. Non-zero is only supported by the in-process thread executor;
  /// the fleet executor rejects it (the rings would live in other
  /// processes).
  std::uint32_t trace_mask = 0;
  /// Called once per traced job, after its record is delivered, with the
  /// job's ring (drained after the call returns). May run on worker threads
  /// concurrently — the sink synchronizes its own output.
  std::function<void(std::uint32_t point, std::uint32_t ordinal,
                     const obs::TraceRing& ring)>
      trace_sink{};
  /// Optional sweep telemetry. The in-process thread executor feeds it each
  /// job's executed-event count (for the events/sec rate in --progress and
  /// --stats-json), its phase split and each tx pool's built share; the
  /// fleet executor ignores it — its experiments run in other address spaces.
  obs::SweepTelemetry* telemetry = nullptr;
};

/// Whether the plan says this job already has its record.
inline bool plan_job_done(const ExecutionPlan& plan, std::size_t job) {
  return plan.done != nullptr && job < plan.done->size() && (*plan.done)[job] != 0;
}

/// Cooperative cancellation for a sweep in flight. A signal handler (ngsim's
/// SIGINT/SIGTERM) or a test sets the flag; every executor polls it between
/// dispatches and aborts by throwing SweepInterrupted after quiescing its
/// workers — so run_sweep/run_adaptive sync the record cache on the way out
/// instead of the process dying with unsynced entries.
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
  /// Returns the parallel width actually used (threads or worker slots).
  /// Throws (after quiescing its workers) if any job fails.
  virtual std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) = 0;
};

/// In-process pool of `jobs` worker threads (0 = hardware concurrency).
std::unique_ptr<Executor> make_thread_executor(std::uint32_t jobs);

/// Run one job. The shared pool may be null (the experiment then builds its
/// own workload). Pure function of its arguments — every executor and every
/// worker session funnel through this. `trace` (optional) receives the
/// experiment's decision trace; recording is observational, so the record —
/// digest included — is bit-identical with and without it.
/// `telemetry` (optional) receives the job's simulate/build/metrics phase
/// split and its event counts; like tracing it never touches the record.
RunRecord run_job(const Scenario& scenario, const SweepPoint& point,
                  std::uint32_t point_index, std::uint32_t ordinal,
                  std::shared_ptr<const sim::PrebuiltWorkload> pool,
                  obs::TraceRing* trace = nullptr,
                  obs::SweepTelemetry* telemetry = nullptr);

}  // namespace bng::runner
