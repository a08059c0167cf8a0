// Fleet: the one dispatch loop for out-of-process workers, speaking the
// worker protocol of runner/worker_protocol.hpp. A worker slot is either a
// TCP endpoint (`ngsim --hosts a:p,b:p`, remote `ngsim --serve` workers) or
// a local child (`ngsim --procs N`, `ngsim --worker` over a socketpair).
// Only two pieces of code know which kind a slot is: how it gets its socket
// (connect, or socketpair + fork [+ exec]) and how it lets it go (close, or
// close + SIGKILL + waitpid). Everything below runs unchanged for both:
//
//   * workers heartbeat ('B' frames from a dedicated thread) at an interval
//     the dispatcher chooses in the handshake; a worker silent past
//     `heartbeat_timeout_ms` is dead (SIGKILL, SIGSTOP, machine gone) — its
//     job is re-dispatched and the slot is reconnected (a local slot:
//     respawned) with exponential backoff. EOF detects a dead worker at once;
//   * a worker that keeps heartbeating but sits on one job past
//     `job_deadline_ms` is *hung, not dead* — the dispatcher abandons the
//     connection (a local child is killed) and re-dispatches elsewhere;
//   * a job in flight longer than `straggler_after_ms` while another worker
//     idles is speculatively duplicated; records are deduped by slot, so the
//     copy that loses the race is dropped without a trace in the output;
//   * re-dispatch is bounded (`max_job_attempts`): a job that repeatedly
//     kills its workers fails the sweep naming its point/ordinal/seed
//     instead of hanging the merge loop.
//
// Degradation is graceful: any subset of workers surviving (at least one)
// completes the sweep, and the slot-keyed merge keeps the output
// byte-identical to `--jobs 1` through every failure above. Every local
// child is reaped before run() returns or throws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/executor.hpp"

namespace bng::obs {
class SweepTelemetry;
}

namespace bng::runner {

struct FleetTuning {
  std::uint32_t connect_timeout_ms = 5000;
  /// Interval workers are told to heartbeat at (handshake field).
  std::uint32_t heartbeat_ms = 1000;
  /// A worker silent (no frames, no heartbeats) this long is dead.
  std::uint32_t heartbeat_timeout_ms = 10000;
  /// A single job in flight this long marks its worker hung; 0 = no deadline.
  std::uint32_t job_deadline_ms = 0;
  /// Speculatively duplicate a job in flight this long onto an idle worker
  /// once the queue is empty; 0 = no speculation.
  std::uint32_t straggler_after_ms = 0;
  /// Reconnect (respawn) backoff for a dead slot: base << attempt, capped.
  std::uint32_t reconnect_base_ms = 200;
  std::uint32_t reconnect_cap_ms = 5000;
  /// Reconnect attempts per slot before the slot is abandoned for good.
  std::uint32_t max_reconnects = 5;
  /// Dispatch attempts per job before the sweep fails.
  std::uint32_t max_job_attempts = 3;
};

/// Throws std::invalid_argument, naming both values, when no worker could
/// meet the liveness rule: a heartbeat interval of 0 (no beats at all), or a
/// heartbeat timeout not greater than the interval.
void check_liveness_tuning(const FleetTuning& tuning);

struct FleetOptions {
  /// "host:port" endpoints of `ngsim --serve` workers, one slot each.
  /// Empty: local slots.
  std::vector<std::string> hosts;
  /// Local worker processes when `hosts` is empty: min(procs, pending jobs)
  /// slots, named proc0, proc1, ...
  std::uint32_t procs = 0;
  /// argv each local child execs, e.g. {"/path/to/ngsim", "--worker"}; its
  /// socketpair end is its stdin. Empty: fork without exec and run
  /// worker_session in the child (tests; it inherits the scenario registry).
  std::vector<std::string> worker_argv;
  FleetTuning tuning;
  /// Non-owning; when set, the executor pushes per-worker snapshots
  /// (liveness, reconnects, speculation wins, piggybacked worker stats) into
  /// it as the sweep runs — the source of `--progress` / `--stats-json`.
  obs::SweepTelemetry* telemetry = nullptr;
  /// Test hook: ship a kill-after order in every handshake to slot 0 (the
  /// worker SIGKILLs itself when handed its (n+1)-th job). Negative: off.
  int test_kill_worker0_after_jobs = -1;
  /// Test hook: ship a hang-after order to slot 0 (the worker computes
  /// forever while heartbeating — only a job deadline catches it).
  int test_hang_worker0_after_jobs = -1;
  /// Test hook: the dispatcher severs slot 0 after receiving this many
  /// records from it, exercising reconnect + re-dispatch.
  int test_sever_worker0_after_records = -1;
  /// Test hook: throw SweepInterrupted after this many records total — a
  /// deterministic stand-in for SIGTERM mid-sweep. Negative: off.
  int test_interrupt_after_records = -1;
};

/// Throws std::invalid_argument on options no sweep could run with (no
/// slots, or a tuning check_liveness_tuning rejects), before any worker is
/// spawned or connected.
std::unique_ptr<Executor> make_fleet_executor(FleetOptions options);

/// One worker protocol session on a connected socket: rebuild the scenario
/// from the handshake, heartbeat, and answer job frames until EOF. Returns
/// the process exit code (0 on EOF). Never throws; fatal errors are reported
/// as 'E' frames. `ngsim --worker` runs it on the socketpair end it inherits
/// as stdin; serve_loop runs it on each accepted connection.
int worker_session(int fd);

/// Create a listening TCP socket on 0.0.0.0:`port` (0 = kernel-assigned).
/// Returns the fd and stores the bound port; throws std::runtime_error.
int make_listen_socket(std::uint16_t port, std::uint16_t& bound_port);

/// Worker accept loop: serve one dispatcher connection at a time, each a
/// fresh protocol session, until the process is killed. Surviving a
/// dispatcher crash is the point — the next dispatcher (the rerun of a
/// killed sweep) reconnects and gets a clean session.
int serve_loop(int listen_fd);

/// `ngsim --serve <port>`: bind, announce the port on stdout, serve_loop.
int serve_main(std::uint16_t port);

}  // namespace bng::runner
