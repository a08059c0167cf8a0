// Sweep engine: expands a scenario into (point × seed) jobs, hands them to
// a pluggable Executor (runner/executor.hpp — in-process threads, or the
// fleet of local or remote worker processes), and folds the streamed
// RunRecords into per-point aggregates.
//
// Determinism: each job's RNG seed is a pure function of its identity
// (scenario seed_base, point index, seed ordinal), every record carries that
// identity and is merged into its own preallocated slot, and the shared tx
// pool is generated once per sweep point from seed-independent parameters —
// so results are bit-identical regardless of the executor, its width, or
// the order records arrive in. Each record carries an FNV-1a determinism
// digest as the witness. With a record cache (runner/cache.hpp), every job
// is looked up before the executor is built and every delivered record is
// stored before it lands in its slot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/aggregate.hpp"
#include "runner/record.hpp"
#include "runner/scenario.hpp"
#include "runner/fleet.hpp"

namespace bng::obs {
class SweepTelemetry;
}

namespace bng::runner {

class RunCache;

struct SweepOptions {
  std::uint32_t seeds = 1;
  /// Worker threads when procs == 0; 0 = hardware concurrency. Results are
  /// identical for any value.
  std::uint32_t jobs = 1;
  /// Local worker *processes*, run as fleet slots (runner/fleet.hpp); 0 =
  /// run in-process on `jobs` threads. Requires a shippable scenario
  /// (registered name or scenario file). Results are bit-identical to any
  /// in-process run.
  std::uint32_t procs = 0;
  /// Remote `ngsim --serve` workers as "host:port" endpoints: the fleet's
  /// TCP slots. Non-empty overrides jobs/procs. Same bit-identical guarantee
  /// as every other executor.
  std::vector<std::string> hosts;
  /// Liveness / re-dispatch knobs for the fleet (`procs` and `hosts`).
  FleetTuning fleet;
  /// One immutable pre-generated tx pool per sweep point, shared by all of
  /// its seeds (instead of a per-seed copy).
  bool share_workload = true;
  /// argv exec'd for each local worker process (e.g. {"/proc/self/exe",
  /// "--worker"}). Empty: fork without exec (same binary, no exec).
  std::vector<std::string> worker_argv;

  /// Content-addressed record store (runner/cache.hpp), keyed by
  /// (scenario-source hash, resolved point-config digest, seed). Every job
  /// is looked up before dispatch — hits skip the simulation entirely and
  /// are byte-identical to a fresh run — and every delivered record is
  /// stored, so rerunning a killed sweep against the same cache runs only
  /// the missing jobs. Non-owning; null disables caching.
  RunCache* cache = nullptr;

  /// Runtime telemetry (obs/telemetry.hpp). When set, run_sweep feeds it job
  /// counts and (with `procs` or `hosts`) per-worker fleet state.
  /// Non-owning; null disables all accounting.
  obs::SweepTelemetry* telemetry = nullptr;
  /// Render a one-line progress report to stderr every ~500 ms (plus one
  /// final line). Purely cosmetic: sweep artifacts are byte-identical with
  /// and without it.
  bool progress = false;

  /// Decision-trace categories (obs/trace_ring.hpp mask; 0 = off). Only the
  /// in-process thread executor supports tracing — run_sweep rejects a
  /// non-zero mask combined with `procs` or `hosts`.
  std::uint32_t trace_mask = 0;
  /// Where the per-job trace JSONL goes when trace_mask != 0 (required then).
  /// Line order across jobs is scheduling-dependent under jobs > 1; every
  /// line carries its (point, ordinal) identity.
  std::string trace_path;

  /// Fleet test hooks (see FleetOptions); ignored by the thread executor.
  int test_kill_worker0_after_jobs = -1;
  int test_hang_worker0_after_jobs = -1;
  int test_sever_worker0_after_records = -1;
  int test_interrupt_after_records = -1;
};

struct PointResult {
  std::vector<std::string> labels;
  double x = 0;
  std::vector<RunRecord> seeds;  ///< ordered by seed ordinal
  std::vector<std::pair<std::string, MetricAggregate>> aggregates;
};

struct SweepResult {
  std::string scenario;
  std::string description;
  std::uint32_t seeds = 1;
  std::uint32_t jobs = 1;   ///< parallel lanes actually used (threads or procs)
  std::uint32_t procs = 0;  ///< worker processes (0 = in-process threads)
  double wall_s = 0;
  std::vector<PointResult> points;
};

/// Run every (point, seed) job of the scenario. Rethrows the first job
/// failure after the executor has quiesced. Throws SweepInterrupted (with
/// the cache synced) if the sweep interrupt flag is raised mid-run.
SweepResult run_sweep(const Scenario& scenario, const SweepOptions& options);

// Forward declaration (runner/executor.hpp).
class Executor;

/// Build the executor `options` selects — the fleet for `hosts` or `procs`,
/// else the in-process thread pool. Shared by run_sweep and run_adaptive
/// (runner/adaptive.hpp) so both dispatch through identical substrates.
/// Wires fleet telemetry/test hooks when applicable.
std::unique_ptr<Executor> make_sweep_executor(const SweepOptions& options,
                                              obs::SweepTelemetry* telemetry);

}  // namespace bng::runner
