// The worker wire protocol between the fleet dispatcher (fleet.cpp) and its
// workers: local `ngsim --worker` children over socketpairs (`--procs`) and
// remote `ngsim --serve` workers over TCP (`--hosts`). One protocol, one
// session function, two transports — that is what makes an N-machine sweep
// bit-identical to `--procs N` and to `--jobs 1`.
//
// Frames (runner/record_codec.hpp length-prefixed framing):
//
//   dispatcher -> worker  'H' u16 codec-version, u8 source-kind, u32+bytes
//                             scenario ref (registered name | scenario text),
//                             u32 nodes, u32 blocks, u8 share_workload,
//                             u32 kill-after, u32 hang-after (test hooks;
//                             0xffffffff = off), u32 heartbeat-ms (0 = none)
//   dispatcher -> worker  'J' u32 point, u32 ordinal
//   worker -> dispatcher  'R' encode_record() bytes
//   worker -> dispatcher  'E' utf-8 error message (fatal; dispatcher rethrows)
//   worker -> dispatcher  'B' heartbeat. Optionally followed by a compact
//                             stats frame: u32 jobs_done, u32 pool_rebuilds,
//                             u64 busy_ms. A bare kind byte is still a valid
//                             beacon (old workers), and dispatchers ignore
//                             payload they don't expect (old dispatchers).
//
// The worker rebuilds the scenario from its shippable source (the registry
// for builtins, the key=value grammar for inline text), re-expands the sweep
// grid, and funnels every job through the same run_job() as the in-process
// thread pool — so a record computed anywhere is bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"

namespace bng::sim {
struct PrebuiltWorkload;
}

namespace bng::runner {

/// "Off" value for the handshake's kill-after / hang-after test hooks.
inline constexpr std::uint32_t kHookDisabled = 0xffffffffu;

/// Fault-injection hooks shipped in the handshake, driven by tests and the
/// fleet's CI smoke: `kill_after` makes the worker SIGKILL itself when handed
/// its (n+1)-th job (a crash mid-job); `hang_after` makes it compute forever
/// on that job while its heartbeat thread keeps beating (a hung-not-dead
/// worker, exercising the dispatcher's per-job deadline).
struct WorkerHooks {
  std::uint32_t kill_after = kHookDisabled;
  std::uint32_t hang_after = kHookDisabled;
};

[[nodiscard]] std::string handshake_payload(const ScenarioSource& source,
                                            bool share_workload, WorkerHooks hooks,
                                            std::uint32_t heartbeat_ms);
[[nodiscard]] std::string job_payload(std::uint32_t point, std::uint32_t ordinal);
[[nodiscard]] std::string error_payload(std::string_view message);
[[nodiscard]] std::string heartbeat_payload();
/// Heartbeat carrying the worker's self-reported stats (see the 'B' frame
/// doc above).
[[nodiscard]] std::string heartbeat_payload(const obs::WorkerStatsFrame& stats);
/// Parse a 'B' payload (cursor past the kind byte). Returns std::nullopt for
/// a bare beacon with no stats.
[[nodiscard]] std::optional<obs::WorkerStatsFrame> parse_heartbeat_stats(
    wire::Reader& in);

/// How a worker sends one framed payload back to its dispatcher. Returns
/// false when the dispatcher is gone (the worker should wind down). The
/// session's implementation takes a mutex so job records and heartbeat-thread
/// beacons never interleave mid-frame.
using SendPayload = std::function<bool(std::string_view payload)>;

/// Worker-side session state: the rebuilt scenario, its re-expanded grid,
/// and the one cached per-point workload pool.
struct WorkerState {
  std::optional<Scenario> scenario;
  std::vector<SweepPoint> points;
  bool share_workload = true;
  WorkerHooks hooks;
  std::uint32_t heartbeat_ms = 0;
  // Self-reported stats, piggybacked on heartbeats. Atomics because the
  // heartbeat thread snapshots them while the session thread runs jobs.
  std::atomic<std::uint32_t> jobs_done{0};
  std::atomic<std::uint32_t> pool_rebuilds{0};
  std::atomic<std::uint64_t> busy_ms{0};

  /// Snapshot for a heartbeat.
  [[nodiscard]] obs::WorkerStatsFrame stats_frame() const;
  // One pool is cached at a time, keyed by the workload digest rather than
  // the point index: points whose deltas don't touch the workload inputs
  // (e.g. an alpha x gamma attack grid) share the pool, so pool_rebuilds
  // collapses to ~#distinct workloads. The pool is a seed-independent pure
  // function of those inputs, so rebuilt pools stay bit-identical anyway.
  std::uint64_t pool_digest = 0;
  std::shared_ptr<const sim::PrebuiltWorkload> pool;
};

/// Parse an 'H' frame (cursor positioned after the kind byte) and rebuild
/// the scenario + grid. Throws on version skew or an unknown scenario.
void worker_handshake(WorkerState& st, wire::Reader& in);

/// Run one 'J' frame's job and send the 'R' record (or trip a fault hook).
/// Returns false when the dispatcher is unreachable.
bool worker_job(WorkerState& st, wire::Reader& in, const SendPayload& send);

}  // namespace bng::runner
