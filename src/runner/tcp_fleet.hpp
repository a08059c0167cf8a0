// TCP fleet: the worker protocol of runner/worker_protocol.hpp over real
// sockets — `ngsim --serve <port>` workers plus a dispatcher-side
// TcpFleetExecutor behind `ngsim --hosts a:p,b:p`.
//
// Where the process pool equates "crashed" with "socketpair EOF", a TCP
// fleet needs real liveness:
//
//   * workers heartbeat ('B' frames from a dedicated thread) at an interval
//     the dispatcher chooses in the handshake; a worker silent past
//     `heartbeat_timeout_ms` is dead (SIGKILL, SIGSTOP, machine gone) — its
//     job is re-dispatched and the host is retried with exponential backoff;
//   * a worker that keeps heartbeating but sits on one job past
//     `job_deadline_ms` is *hung, not dead* — the dispatcher abandons the
//     connection and re-dispatches elsewhere;
//   * a job in flight longer than `straggler_after_ms` while another worker
//     idles is speculatively duplicated; records are deduped by slot, so the
//     copy that loses the race is dropped without a trace in the output;
//   * re-dispatch is bounded (`max_job_attempts`): a job that repeatedly
//     kills its workers fails the sweep naming its point/ordinal/seed
//     instead of hanging the merge loop.
//
// Degradation is graceful: any subset of workers surviving (at least one)
// completes the sweep, and the slot-keyed merge keeps the output
// byte-identical to `--jobs 1` through every failure above.
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
  /// Reconnect backoff to a dead host: base << attempt, capped.
  std::uint32_t reconnect_base_ms = 200;
  std::uint32_t reconnect_cap_ms = 5000;
  /// Reconnect attempts per host before the host is abandoned for good.
  std::uint32_t max_reconnects = 5;
  /// Dispatch attempts per job before the sweep fails.
  std::uint32_t max_job_attempts = 3;
};

struct TcpFleetOptions {
  std::vector<std::string> hosts;  ///< "host:port" worker endpoints
  FleetTuning tuning;
  /// Non-owning; when set, the executor pushes per-worker snapshots
  /// (liveness, reconnects, speculation wins, piggybacked worker stats) into
  /// it as the sweep runs — the source of `--progress` / `--stats-json`.
  obs::SweepTelemetry* telemetry = nullptr;
  /// Test hook: ship a kill-after order in every handshake to hosts[0] (the
  /// worker SIGKILLs itself when handed its (n+1)-th job). Negative: off.
  int test_kill_host0_after_jobs = -1;
  /// Test hook: ship a hang-after order to hosts[0] (the worker computes
  /// forever while heartbeating — only a job deadline catches it).
  int test_hang_host0_after_jobs = -1;
  /// Test hook: the dispatcher severs hosts[0]'s connection after receiving
  /// this many records from it, exercising reconnect + re-dispatch.
  int test_sever_host0_after_records = -1;
  /// Test hook: throw SweepInterrupted after this many records total — a
  /// deterministic stand-in for SIGTERM mid-sweep. Negative: off.
  int test_interrupt_after_records = -1;
};

std::unique_ptr<Executor> make_tcp_fleet_executor(TcpFleetOptions options);

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
