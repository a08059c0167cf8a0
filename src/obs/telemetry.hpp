// Runtime sweep/fleet telemetry: what the dispatcher knows about a sweep
// while it runs, aggregated from the record sink, the record cache, and
// (for fleet workers, `--procs` or `--hosts`) per-worker liveness and the
// compact stats frame each worker piggybacks on its 'B' heartbeats.
//
// One SweepTelemetry instance is shared by the sweep engine, the executor,
// and the `--progress` render thread, so every accessor takes the internal
// mutex — these are control-plane paths (one update per record/heartbeat),
// never the sim hot path. `--stats-json` serializes the final state.
#pragma once

#include <array>
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
};

/// The dispatcher's record-cache counters (runner/cache.hpp RunCache).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;   ///< present but wrong hash/version/corrupt
  std::uint64_t stores = 0;
  /// Entry writes and fsyncs that failed: records the cache does not hold
  /// (or does not hold durably), so a rerun would simulate them again.
  std::uint64_t write_failures = 0;
  std::uint64_t fsyncs = 0;  ///< entry files and directories
  double fsync_total_ms = 0;
  double fsync_max_ms = 0;
};

/// A job's charged sends by net::Message kind: ignored (dead invs, never
/// delivered), inv, getdata, block. They sum to Network::messages_sent().
using MessageCounts = std::array<std::uint64_t, 4>;

/// Dispatcher-side view of one fleet worker slot.
struct WorkerTelemetry {
  std::string endpoint;  ///< "host:port", or "procN" for a local slot
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
  void start(std::size_t total_jobs);
  /// Jobs answered from the record cache before dispatch.
  void add_prefilled(std::size_t n);
  void on_record_delivered();
  /// Simulation events a finished job executed (EventQueue::events_executed),
  /// the deliveries it elided instead (Network::deliveries_elided: dead invs
  /// that never became an event) and its sends (a "messages" section). Only
  /// the in-process thread executor reports them: fleet workers run their
  /// experiments in other address spaces. Never part of a record.
  void add_events(std::uint64_t executed, std::uint64_t elided, const MessageCounts& sent);
  /// One finished job's wall time split into its simulation phase (build and
  /// run the experiment), the deployment build within it (Experiment::build:
  /// topology, network, trace recorder, nodes, scheduler) and its
  /// metric-extraction phase (metrics, hooks, record), ms. Reported by the
  /// in-process thread executor only, like add_events; adds a "phases"
  /// section to the stats JSON. Never part of a record.
  void add_phase_ms(double simulate_ms, double build_ms, double metrics_ms);
  /// Wall time of one shared tx-pool build (sim::build_shared_workload: the
  /// genesis and transaction 0), ms. Reported by the in-process thread
  /// executor, once per pool it builds; the "phases" section shows the sum
  /// as "workload_ms". Never part of a record.
  void add_workload_ms(double ms);
  /// One shared tx pool after its last job: its size and how many of its
  /// transactions the jobs' blocks made it build. Reported by the in-process
  /// thread executor; adds a "pool" section (sums over pools) to the stats
  /// JSON. Never part of a record.
  void add_pool(std::uint64_t txs, std::uint64_t built);
  /// One finished job's ECDSA work: signatures its nodes made and checked
  /// (crypto::thread_signature_counts across the job). Reported by the
  /// in-process thread executor; adds a "signatures" section (sums over
  /// jobs) to the stats JSON. Never part of a record.
  void add_signatures(std::uint64_t signed_count, std::uint64_t verified);
  /// One finished job's event-queue mechanism: how often a dense bucket
  /// re-anchored the calendar (EventQueue::reanchors), how many events ran
  /// from its near heap (EventQueue::near_pops), the callback slots it held
  /// (EventQueue::slots, its peak of live events) and its overflow-heap
  /// pushes (EventQueue::overflow_pushes). Reported by the in-process thread
  /// executor; adds a "queue" section to the stats JSON: the largest
  /// `slots` of any job, sums of the rest. Never part of a record.
  void add_queue(std::uint64_t reanchors, std::uint64_t near_pops, std::uint32_t slots,
                 std::uint64_t overflow_pushes);

  /// Peak resident set of THIS process so far, bytes: VmHWM, which starts
  /// afresh at exec, or else ru_maxrss (on Linux it keeps the pre-exec
  /// image); 0 where unsupported. Free function so callers outside a sweep
  /// (the runner's final report) can use it too.
  static std::uint64_t peak_rss_bytes();

  // --- Record cache (runner/cache.hpp) --------------------------------------
  /// Final counters of the dispatcher's cache. Adds a "cache" section to the
  /// stats JSON.
  void cache_stats(const CacheCounters& counters);

  // --- Adaptive frontier driver (runner/adaptive.hpp) -----------------------
  /// Dispatch accounting for an adaptive sweep: how many points/jobs the
  /// dense grid holds vs how many were actually evaluated/dispatched. Adds
  /// an "adaptive" section to the stats JSON (CI asserts the reduction).
  void adaptive_stats(std::size_t dense_points, std::size_t dense_jobs,
                      std::size_t evaluated_points, std::size_t jobs_dispatched);

  // --- Fleet worker table (runner/fleet.hpp) --------------------------------
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

  /// End-of-sweep JSON report for `--stats-json`. Its "sha256" field names
  /// the SHA-256 kernel this process hashes with (crypto::sha256_kernel());
  /// under --hosts, workers on other machines pick their own.
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
  std::uint64_t elided_total_ = 0;
  bool has_messages_ = false;
  MessageCounts messages_;
  std::uint64_t phase_jobs_ = 0;
  double simulate_ms_ = 0;
  double metrics_ms_ = 0;
  double workload_ms_ = 0;
  double build_ms_ = 0;
  bool has_signatures_ = false;
  std::uint64_t signed_ = 0;
  std::uint64_t verified_ = 0;
  bool has_queue_ = false;
  std::uint64_t reanchors_ = 0;
  std::uint64_t near_pops_ = 0;
  std::uint32_t queue_slots_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  bool has_pool_ = false;
  std::uint64_t pool_txs_ = 0;
  std::uint64_t pool_built_ = 0;
  std::chrono::steady_clock::time_point started_{};
  bool has_cache_ = false;
  CacheCounters cache_;
  bool has_adaptive_ = false;
  std::size_t adaptive_dense_points_ = 0;
  std::size_t adaptive_dense_jobs_ = 0;
  std::size_t adaptive_evaluated_points_ = 0;
  std::size_t adaptive_jobs_dispatched_ = 0;
  std::vector<WorkerTelemetry> workers_;

};

}  // namespace bng::obs
