// Runtime sweep/fleet telemetry: what the dispatcher knows about a sweep
// while it runs, aggregated from the record sink, the journal writer, and
// (for the TCP fleet) per-worker liveness and the compact stats frame each
// worker piggybacks on its 'B' heartbeats.
//
// One SweepTelemetry instance is shared by the sweep engine, the executor,
// and the `--progress` render thread, so every accessor takes the internal
// mutex — these are control-plane paths (one update per record/heartbeat),
// never the sim hot path. `--stats-json` serializes the final state.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bng::obs {

/// The stats frame a worker piggybacks on each heartbeat ('B' frames carry
/// it after the kind byte; an empty payload — pre-telemetry workers — is
/// still a valid heartbeat).
struct WorkerStatsFrame {
  std::uint32_t jobs_done = 0;      ///< records computed this session
  std::uint32_t pool_rebuilds = 0;  ///< shared-workload pools built
  std::uint64_t busy_ms = 0;        ///< wall time spent inside run_job
  // Record-cache counters (runner/cache.hpp); all zero when the worker runs
  // without --cache. Appended after busy_ms on the wire — a frame that ends
  // at busy_ms (pre-cache workers) still parses, with these left at zero.
  std::uint32_t cache_hits = 0;
  std::uint32_t cache_misses = 0;
  std::uint32_t cache_stale = 0;
  std::uint32_t cache_stores = 0;
};

/// End-of-run summary a parallel-in-time engine (sim/parallel_engine.hpp)
/// reports for one sharded experiment. Busy/stall time flows in separately
/// through add_parallel_delta so --progress shows efficiency live.
struct ParallelFrame {
  std::uint32_t shards = 0;
  std::uint64_t windows = 0;        ///< safe windows (== barriers) executed
  std::uint64_t lane_messages = 0;  ///< cross-shard deliveries merged
  std::uint64_t arena_local_bytes = 0;  ///< bytes first-touched on shard threads
  double window_min_s = 0;
  double window_avg_s = 0;
  double wall_ms = 0;           ///< engine wall time
  std::uint64_t events = 0;     ///< events executed across the run's shards
};

/// Dispatcher-side view of one remote worker.
struct WorkerTelemetry {
  std::string endpoint;
  bool alive = false;
  bool abandoned = false;          ///< reconnect budget exhausted
  std::uint64_t records = 0;       ///< records this dispatcher accepted from it
  std::uint32_t inflight = 0;      ///< jobs currently assigned (0 or 1)
  std::uint32_t reconnects = 0;    ///< reconnect attempts, lifetime total
  std::uint32_t speculation_wins = 0;  ///< speculative copies that won the race
  std::uint64_t heartbeats = 0;    ///< 'B' frames received
  /// Longest observed silence between frames from this worker, ms. The
  /// heartbeats are one-way, so a true RTT does not exist at the dispatcher;
  /// the max inter-frame gap is the honest liveness figure.
  std::uint64_t max_silence_ms = 0;
  WorkerStatsFrame reported;       ///< latest piggybacked stats frame
};

class SweepTelemetry {
 public:
  // --- Sweep-level progress (all executors) --------------------------------
  void start(std::size_t total_jobs, std::size_t prefilled);
  void on_record_delivered();
  /// Simulation events a finished job executed (EventQueue::events_executed).
  /// Reported by the in-process thread executor; process/fleet workers run
  /// their experiments in other address spaces and report 0.
  void add_events(std::uint64_t n);
  /// One finished job's wall time split into its simulation phase (build and
  /// run the experiment) and its metric-extraction phase (metrics, hooks,
  /// record), ms. Reported by the in-process thread executor only, like
  /// add_events; adds a "phases" section to the stats JSON. Never part of a
  /// record.
  void add_phase_ms(double simulate_ms, double metrics_ms);

  /// Peak resident set of THIS process so far, bytes (getrusage ru_maxrss);
  /// 0 where unsupported. Free function so callers outside a sweep (the
  /// runner's final report) can use it too.
  static std::uint64_t peak_rss_bytes();

  // --- Journal fsync lag ----------------------------------------------------
  void journal_stats(std::uint64_t fsyncs, double total_ms, double max_ms);

  // --- Record cache (runner/cache.hpp) --------------------------------------
  /// Final cache counters for the sweep: the dispatcher's own cache plus the
  /// sum of every fleet worker's self-reported counters. Adds a "cache"
  /// section to the stats JSON.
  void cache_stats(std::uint64_t hits, std::uint64_t misses, std::uint64_t stale,
                   std::uint64_t stores);

  // --- Adaptive frontier driver (runner/adaptive.hpp) -----------------------
  /// Dispatch accounting for an adaptive sweep: how many points/jobs the
  /// dense grid holds vs how many were actually evaluated/dispatched. Adds
  /// an "adaptive" section to the stats JSON (CI asserts the reduction).
  void adaptive_stats(std::size_t dense_points, std::size_t dense_jobs,
                      std::size_t evaluated_points, std::size_t jobs_dispatched);

  // --- Parallel-in-time engine (sharded single runs) ------------------------
  /// Incremental shard busy/stall wall time, ms. Engines flush every few
  /// dozen barriers while running, so progress_line's par_eff figure is
  /// live; the deltas sum to the final totals (no double counting).
  void add_parallel_delta(double busy_ms, double stall_ms);
  /// One finished sharded run's summary.
  void add_parallel_run(const ParallelFrame& frame);

  // --- Fleet worker table (TcpFleetExecutor) --------------------------------
  /// Size the worker table; called once before dispatch.
  void init_workers(const std::vector<std::string>& endpoints);
  /// Overwrite one worker's row (the fleet executor owns the truth and
  /// pushes snapshots on every state change).
  void update_worker(std::size_t index, const WorkerTelemetry& w);

  // --- Consumers ------------------------------------------------------------
  /// One parseable line for `--progress`:
  ///   [progress] records=3/8 events_per_sec=1.2e+06 rss_peak_mb=410.2
  ///   workers_alive=2/2 reconnects=0 spec_wins=0
  /// (events_per_sec appears once any job reported its executed-event count;
  /// the workers fields are omitted when no fleet is attached).
  [[nodiscard]] std::string progress_line() const;

  /// End-of-sweep JSON report for `--stats-json`.
  [[nodiscard]] std::string to_json(const std::string& scenario, double wall_s) const;

  [[nodiscard]] std::size_t records_done() const;
  [[nodiscard]] std::size_t total_jobs() const;
  [[nodiscard]] std::vector<WorkerTelemetry> workers() const;

 private:
  mutable std::mutex mu_;
  std::size_t total_jobs_ = 0;
  std::size_t prefilled_ = 0;
  std::size_t delivered_ = 0;
  std::uint64_t events_total_ = 0;
  std::uint64_t phase_jobs_ = 0;
  double simulate_ms_ = 0;
  double metrics_ms_ = 0;
  std::chrono::steady_clock::time_point started_{};
  std::uint64_t journal_fsyncs_ = 0;
  double journal_fsync_total_ms_ = 0;
  double journal_fsync_max_ms_ = 0;
  bool has_journal_ = false;
  bool has_cache_ = false;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_stale_ = 0;
  std::uint64_t cache_stores_ = 0;
  bool has_adaptive_ = false;
  std::size_t adaptive_dense_points_ = 0;
  std::size_t adaptive_dense_jobs_ = 0;
  std::size_t adaptive_evaluated_points_ = 0;
  std::size_t adaptive_jobs_dispatched_ = 0;
  std::vector<WorkerTelemetry> workers_;

  // Parallel-engine aggregates (across every sharded run of the sweep).
  bool has_parallel_ = false;
  double par_busy_ms_ = 0;
  double par_stall_ms_ = 0;
  std::uint32_t par_shards_max_ = 0;
  std::uint64_t par_runs_ = 0;
  std::uint64_t par_windows_ = 0;
  std::uint64_t par_lane_messages_ = 0;
  std::uint64_t par_arena_bytes_ = 0;
  double par_window_min_s_ = 0;
  double par_window_sum_s_ = 0;   ///< Σ avg*windows — weighted mean source
  double par_shard_seconds_ = 0;  ///< Σ wall_s * shards — per-shard rate base
  std::uint64_t par_events_ = 0;
};

}  // namespace bng::obs
