#include "runner/fleet.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "obs/telemetry.hpp"
#include "runner/io_util.hpp"
#include "runner/record_codec.hpp"
#include "runner/worker_protocol.hpp"

namespace bng::runner {

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool send_frame(int fd, std::string_view payload) {
  return io::send_all(fd, frame(payload));
}

struct Endpoint {
  std::string host;
  std::string port;
};

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::invalid_argument("fleet: bad host spec '" + spec +
                                "' (expected host:port)");
  return Endpoint{spec.substr(0, colon), spec.substr(colon + 1)};
}

/// Blocking-with-timeout TCP connect; returns the connected fd (set back to
/// blocking, TCP_NODELAY on) or -1 with `error` filled in.
int connect_with_timeout(const Endpoint& ep, std::uint32_t timeout_ms,
                         std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
  if (gai != 0) {
    error = std::string("resolve: ") + ::gai_strerror(gai);
    return -1;
  }
  int fd = -1;
  error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (rc < 0 && errno == EINTR);
      if (rc > 0) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          rc = 0;
        } else {
          errno = err;
          rc = -1;
        }
      } else if (rc == 0) {
        errno = ETIMEDOUT;
        rc = -1;
      }
    }
    if (rc == 0) {
      // Connected: drop non-blocking (the dispatcher gates every recv with
      // poll, so blocking sockets keep the I/O paths simple).
      const int flags = ::fcntl(fd, F_GETFL);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      set_nodelay(fd);
      break;
    }
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

enum class JobState : std::uint8_t { kPending, kInflight, kDone };

/// One worker slot: a TCP endpoint, or a local child the dispatcher forks.
struct Worker {
  std::string spec;  ///< "host:port", or "procN" for a local slot
  std::optional<Endpoint> endpoint;  ///< set for TCP slots only
  pid_t pid = -1;                    ///< a local slot's child, until reaped
  int fd = -1;
  bool alive = false;
  bool abandoned = false;  ///< reconnect budget exhausted
  std::string buf;
  std::optional<std::size_t> inflight;  ///< job index
  /// True when the in-flight job is a speculative duplicate (straggler
  /// policy) — if its record lands first, that is a speculation win.
  bool speculative = false;
  std::uint64_t last_heard_ms = 0;
  std::uint64_t job_started_ms = 0;
  std::uint32_t reconnects = 0;  ///< consecutive reconnect attempts; reset on a record
  std::uint64_t next_reconnect_ms = 0;
  std::uint32_t records_seen = 0;
  std::string last_error;  ///< most recent connect failure, for diagnostics

  // Telemetry accumulators (reported through obs::SweepTelemetry).
  std::uint32_t total_reconnects = 0;  ///< lifetime, never reset
  std::uint32_t speculation_wins = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t max_silence_ms = 0;
  obs::WorkerStatsFrame reported;  ///< latest piggybacked stats frame
};

class FleetExecutor final : public Executor {
 public:
  explicit FleetExecutor(FleetOptions options) : opt_(std::move(options)) {
    if (opt_.hosts.empty() && opt_.procs == 0)
      throw std::invalid_argument("fleet: needs --hosts endpoints or --procs > 0");
    check_liveness_tuning(opt_.tuning);
  }

  ~FleetExecutor() override { close_all(); }

  std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) override {
    if (!plan.scenario.source)
      throw std::invalid_argument(
          "fleet execution needs a shippable scenario (a registered name or a "
          "scenario file); this scenario was built programmatically");
    if (plan.trace_mask != 0)
      throw std::invalid_argument(
          "fleet: decision tracing requires the in-process executor");
    seed_base_ = plan.scenario.seed_base;
    seeds_ = plan.seeds;
    n_points_ = plan.points.size();

    const std::size_t n_jobs = n_points_ * static_cast<std::size_t>(plan.seeds);
    job_state_.assign(n_jobs, JobState::kPending);
    job_attempts_.assign(n_jobs, 0);
    queue_.clear();
    for (std::size_t job = 0; job < n_jobs; ++job) {
      if (plan_job_done(plan, job)) {
        job_state_[job] = JobState::kDone;
      } else {
        queue_.push_back(job);
      }
    }
    const std::size_t n_pending = queue_.size();
    if (n_pending == 0) return 0;

    std::vector<std::string> specs = opt_.hosts;
    if (specs.empty())
      for (std::size_t i = 0; i < std::min<std::size_t>(opt_.procs, n_pending); ++i)
        specs.push_back("proc" + std::to_string(i));
    if (opt_.telemetry != nullptr) opt_.telemetry->init_workers(specs);
    workers_.clear();
    for (std::string& spec : specs) {
      Worker w;
      if (!opt_.hosts.empty()) w.endpoint = parse_endpoint(spec);
      w.spec = std::move(spec);
      workers_.push_back(std::move(w));
    }

    try {
      const std::uint64_t start = now_ms();
      bool any_alive = false;
      for (Worker& w : workers_) {
        if (try_connect(w, plan, start))
          any_alive = true;
        else
          schedule_reconnect(w, start);
      }
      if (!any_alive) {
        // Fail fast: zero reachable slots is a configuration error (a typo'd
        // endpoint, workers not started), not a transient fault worth a full
        // reconnect budget. Name every slot and what its connect said.
        std::string msg = opt_.hosts.empty()
                              ? "fleet: no --procs worker could be started:"
                              : "fleet: no --hosts endpoint is reachable:";
        for (const Worker& w : workers_)
          msg += "\n  " + w.spec + " (" + w.last_error + ")";
        throw std::runtime_error(msg);
      }

      std::size_t completed = 0;
      while (completed < n_pending) {
        throw_if_interrupted();
        const std::uint64_t now = now_ms();
        check_liveness(now);
        try_reconnects(plan, now);
        dispatch(now);
        ensure_progress(completed, n_pending);
        poll_io(plan, sink, completed, n_pending);
        publish_telemetry();
      }
    } catch (...) {
      publish_telemetry();
      close_all();
      throw;
    }

    publish_telemetry();  // final snapshot shows end-of-sweep liveness
    // Orderly EOF: remote workers return to their accept loop and idle local
    // children exit. A child still computing is a losing speculative copy.
    for (Worker& w : workers_) release(w, /*graceful=*/!w.inflight);
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  WorkerHooks hooks_for(std::size_t worker_index) const {
    WorkerHooks hooks;
    if (worker_index == 0) {
      if (opt_.test_kill_worker0_after_jobs >= 0)
        hooks.kill_after = static_cast<std::uint32_t>(opt_.test_kill_worker0_after_jobs);
      if (opt_.test_hang_worker0_after_jobs >= 0)
        hooks.hang_after = static_cast<std::uint32_t>(opt_.test_hang_worker0_after_jobs);
    }
    return hooks;
  }

  /// Local slot: a socketpair, and a forked child speaking the protocol on
  /// the other end. Returns the dispatcher's end, or -1 with w.last_error.
  int spawn(Worker& w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      w.last_error = std::string("socketpair: ") + std::strerror(errno);
      return -1;
    }
    std::vector<char*> argv;  // built before fork: the child only closes and dups
    for (const std::string& a : opt_.worker_argv)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      w.last_error = std::string("fork: ") + std::strerror(errno);
      ::close(sv[0]);
      ::close(sv[1]);
      return -1;
    }
    if (pid == 0) {
      // Child: drop every dispatcher-side fd. SOCK_CLOEXEC does not help a
      // fork-only child, and a worker only sees EOF once the dispatcher's
      // end of its pair has no other owner.
      ::close(sv[0]);
      for (const Worker& other : workers_)
        if (other.fd >= 0) ::close(other.fd);
      if (opt_.worker_argv.empty()) ::_exit(worker_session(sv[1]));
      ::dup2(sv[1], STDIN_FILENO);  // clears CLOEXEC on the worker's stdin
      ::execvp(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(sv[1]);
    w.pid = pid;
    return sv[0];
  }

  /// Let go of a slot's worker. A local child is reaped: SIGKILLed first
  /// unless `graceful`, where the EOF alone makes an idle child exit.
  void release(Worker& w, bool graceful) {
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    w.alive = false;
    if (w.pid <= 0) return;
    if (!graceful) ::kill(w.pid, SIGKILL);
    while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }

  /// Connect (or spawn) + handshake. True on success; failure reason in
  /// w.last_error.
  bool try_connect(Worker& w, const ExecutionPlan& plan, std::uint64_t now) {
    w.fd = w.endpoint ? connect_with_timeout(*w.endpoint, opt_.tuning.connect_timeout_ms,
                                             w.last_error)
                      : spawn(w);
    if (w.fd < 0) return false;
    const std::size_t index = static_cast<std::size_t>(&w - workers_.data());
    const std::string handshake =
        handshake_payload(*plan.scenario.source, plan.share_workload, hooks_for(index),
                          opt_.tuning.heartbeat_ms);
    if (!send_frame(w.fd, handshake)) {
      w.last_error = "handshake send failed";
      release(w, /*graceful=*/false);
      return false;
    }
    w.alive = true;
    w.buf.clear();
    w.inflight.reset();
    w.speculative = false;
    w.last_heard_ms = now;
    w.next_reconnect_ms = 0;
    return true;
  }

  void check_liveness(std::uint64_t now) {
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      if (now - w.last_heard_ms > opt_.tuning.heartbeat_timeout_ms) {
        // Dead (or stopped): nothing has arrived inside the window the
        // worker was told to heartbeat within.
        disconnect(w, now);
        continue;
      }
      if (w.inflight && opt_.tuning.job_deadline_ms > 0 &&
          now - w.job_started_ms > opt_.tuning.job_deadline_ms) {
        // Hung, not dead: the worker still heartbeats but its job blew the
        // deadline. Abandon the connection; the job runs elsewhere.
        disconnect(w, now);
      }
    }
  }

  void try_reconnects(const ExecutionPlan& plan, std::uint64_t now) {
    for (Worker& w : workers_) {
      if (w.alive || w.abandoned || w.next_reconnect_ms == 0 ||
          now < w.next_reconnect_ms)
        continue;
      ++w.reconnects;
      ++w.total_reconnects;
      if (!try_connect(w, plan, now)) schedule_reconnect(w, now);
    }
  }

  void schedule_reconnect(Worker& w, std::uint64_t now) {
    if (w.abandoned) return;
    if (w.reconnects >= opt_.tuning.max_reconnects) {
      w.abandoned = true;
      w.next_reconnect_ms = 0;
      return;
    }
    const std::uint32_t shift = w.reconnects < 16 ? w.reconnects : 16;
    std::uint64_t delay =
        static_cast<std::uint64_t>(opt_.tuning.reconnect_base_ms) << shift;
    if (delay > opt_.tuning.reconnect_cap_ms) delay = opt_.tuning.reconnect_cap_ms;
    w.next_reconnect_ms = now + delay;
  }

  void dispatch(std::uint64_t now) {
    for (Worker& w : workers_) {
      if (queue_.empty()) break;
      if (!w.alive || w.inflight) continue;
      const std::size_t job = queue_.front();
      queue_.pop_front();
      if (!assign(w, job, now)) {
        queue_.push_front(job);
        continue;
      }
      job_state_[job] = JobState::kInflight;
    }
    if (queue_.empty() && opt_.tuning.straggler_after_ms > 0) speculate(now);
  }

  /// Straggler policy: once the queue is dry, duplicate the longest-running
  /// single-copy job onto each idle worker. The records dedupe by slot, so a
  /// lost race costs nothing and a won race hides a slow host.
  void speculate(std::uint64_t now) {
    for (Worker& idle : workers_) {
      if (!idle.alive || idle.inflight) continue;
      std::size_t best_job = SIZE_MAX;
      std::uint64_t best_elapsed = 0;
      for (const Worker& busy : workers_) {
        if (!busy.alive || !busy.inflight) continue;
        const std::uint64_t elapsed = now - busy.job_started_ms;
        if (elapsed < opt_.tuning.straggler_after_ms || elapsed < best_elapsed)
          continue;
        if (copies_inflight(*busy.inflight) > 1) continue;  // already duplicated
        best_job = *busy.inflight;
        best_elapsed = elapsed;
      }
      if (best_job == SIZE_MAX) return;
      assign(idle, best_job, now, /*speculative=*/true);  // failure leaves the original
    }
  }

  std::size_t copies_inflight(std::size_t job) const {
    std::size_t n = 0;
    for (const Worker& w : workers_)
      if (w.alive && w.inflight && *w.inflight == job) ++n;
    return n;
  }

  bool assign(Worker& w, std::size_t job, std::uint64_t now,
              bool speculative = false) {
    const auto point = static_cast<std::uint32_t>(job / seeds_);
    const auto ordinal = static_cast<std::uint32_t>(job % seeds_);
    if (!send_frame(w.fd, job_payload(point, ordinal))) {
      disconnect(w, now);
      return false;
    }
    w.inflight = job;
    w.speculative = speculative;
    w.job_started_ms = now;
    return true;
  }

  /// Deadline, silence, sever, EOF or a failed send: drop the worker (a
  /// local child is killed), requeue its job and schedule the reconnect.
  void disconnect(Worker& w, std::uint64_t now) {
    release(w, /*graceful=*/false);
    w.buf.clear();
    if (w.inflight) {
      const std::size_t job = *w.inflight;
      w.inflight.reset();
      w.speculative = false;
      requeue(job);
    }
    schedule_reconnect(w, now);
  }

  /// Push a snapshot of every worker into the attached telemetry (no-op
  /// without one). Control-plane cost: one mutex round per poll tick.
  void publish_telemetry() const {
    if (opt_.telemetry == nullptr) return;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const Worker& w = workers_[i];
      obs::WorkerTelemetry t;
      t.endpoint = w.spec;
      t.alive = w.alive;
      t.abandoned = w.abandoned;
      t.records = w.records_seen;
      t.inflight = w.inflight ? 1 : 0;
      t.reconnects = w.total_reconnects;
      t.speculation_wins = w.speculation_wins;
      t.heartbeats = w.heartbeats;
      t.max_silence_ms = w.max_silence_ms;
      t.reported = w.reported;
      opt_.telemetry->update_worker(i, t);
    }
  }

  void requeue(std::size_t job) {
    if (job_state_[job] == JobState::kDone) return;
    if (copies_inflight(job) > 0) return;  // a speculative duplicate survives
    const auto point = static_cast<std::uint32_t>(job / seeds_);
    const auto ordinal = static_cast<std::uint32_t>(job % seeds_);
    if (++job_attempts_[job] >= opt_.tuning.max_job_attempts)
      throw std::runtime_error(
          "fleet: job (point " + std::to_string(point) + ", seed ordinal " +
          std::to_string(ordinal) + ", seed " +
          std::to_string(job_seed(seed_base_, point, ordinal)) + ") lost its worker " +
          std::to_string(job_attempts_[job]) + " times; giving up on the sweep");
    job_state_[job] = JobState::kPending;
    // Front of the queue: the re-run starts before new work, bounding how
    // long a failure can delay the merge.
    queue_.push_front(job);
  }

  /// The graceful-degradation floor: fail loudly the moment no live worker,
  /// no queued reconnect, and no in-flight job can still deliver a record —
  /// never hang the merge loop awaiting one that cannot arrive.
  void ensure_progress(std::size_t completed, std::size_t n_pending) const {
    if (completed >= n_pending) return;
    for (const Worker& w : workers_) {
      if (w.alive) return;
      if (!w.abandoned && w.next_reconnect_ms != 0) return;
    }
    throw std::runtime_error(
        "fleet: no live workers remain and every reconnect budget is "
        "exhausted (" +
        std::to_string(n_pending - completed) + " of " + std::to_string(n_pending) +
        " jobs incomplete)");
  }

  void poll_io(const ExecutionPlan& plan, const RecordSink& sink,
               std::size_t& completed, std::size_t n_pending) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      fds.push_back(pollfd{workers_[i].fd, POLLIN, 0});
      index.push_back(i);
    }
    // Short tick so liveness checks, reconnect timers, and the interrupt
    // flag are serviced even when no bytes flow.
    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error(std::string("fleet: poll: ") + std::strerror(errno));
    }
    const std::uint64_t now = now_ms();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      Worker& w = workers_[index[k]];
      if (!w.alive) continue;  // disconnected earlier in this pass
      switch (io::recv_some(w.fd, w.buf)) {
        case io::ReadResult::kData:
          if (now - w.last_heard_ms > w.max_silence_ms)
            w.max_silence_ms = now - w.last_heard_ms;
          w.last_heard_ms = now;
          drain_frames(w, plan, sink, completed, now);
          if (completed >= n_pending) return;
          break;
        case io::ReadResult::kEof:
        case io::ReadResult::kError:
          disconnect(w, now);
          break;
      }
    }
  }

  void drain_frames(Worker& w, const ExecutionPlan& plan, const RecordSink& sink,
                    std::size_t& completed, std::uint64_t now) {
    std::string payload;
    while (w.alive && take_frame(w.buf, payload)) {
      if (payload.empty())
        throw std::runtime_error("fleet: empty frame from " + w.spec);
      switch (static_cast<FrameKind>(payload[0])) {
        case FrameKind::kHeartbeat: {
          // The bytes themselves already refreshed last_heard_ms; a stats
          // frame may ride along (older workers send the bare kind byte).
          ++w.heartbeats;
          wire::Reader in{payload, 1};
          if (const auto stats = parse_heartbeat_stats(in)) w.reported = *stats;
          break;
        }
        case FrameKind::kRecord:
          handle_record(w, std::string_view(payload).substr(1), plan, sink, completed,
                        now);
          break;
        case FrameKind::kError:
          throw std::runtime_error("sweep job failed in worker " + w.spec + ": " +
                                   payload.substr(1));
        default:
          throw std::runtime_error("fleet: unexpected frame from " + w.spec);
      }
    }
  }

  void handle_record(Worker& w, std::string_view bytes, const ExecutionPlan& plan,
                     const RecordSink& sink, std::size_t& completed, std::uint64_t now) {
    RunRecord rec = decode_record(bytes);
    if (rec.point >= plan.points.size() || rec.ordinal >= plan.seeds)
      throw std::runtime_error("fleet: record identity out of range from " +
                               w.spec);
    const std::size_t job = static_cast<std::size_t>(rec.point) * seeds_ + rec.ordinal;
    if (!w.inflight || *w.inflight != job)
      throw std::runtime_error("fleet: record for a job " + w.spec +
                               " was not assigned");
    const bool was_speculative = w.speculative;
    w.inflight.reset();
    w.speculative = false;
    w.reconnects = 0;  // delivered work proves the host healthy again
    ++w.records_seen;

    if (job_state_[job] != JobState::kDone) {
      job_state_[job] = JobState::kDone;
      ++completed;
      if (was_speculative) ++w.speculation_wins;
      sink(std::move(rec));
      ++records_delivered_;
      if (opt_.test_interrupt_after_records >= 0 &&
          records_delivered_ >=
              static_cast<std::size_t>(opt_.test_interrupt_after_records)) {
        // Deterministic SIGTERM stand-in: raise the flag exactly as the
        // signal handler would, then take the cooperative exit right away.
        sweep_interrupt_flag().store(true, std::memory_order_relaxed);
        throw_if_interrupted();
      }
    }
    // else: a speculative duplicate lost the race — drop it silently.

    const std::size_t index = static_cast<std::size_t>(&w - workers_.data());
    if (index == 0 && opt_.test_sever_worker0_after_records >= 0 && !severed_ &&
        w.records_seen >=
            static_cast<std::uint32_t>(opt_.test_sever_worker0_after_records)) {
      severed_ = true;  // test hook: cut the link; reconnect must heal it
      disconnect(w, now);
    }
  }

  void close_all() {
    for (Worker& w : workers_) release(w, /*graceful=*/false);
  }

  FleetOptions opt_;
  std::vector<Worker> workers_;
  std::deque<std::size_t> queue_;
  std::vector<JobState> job_state_;
  std::vector<std::uint32_t> job_attempts_;
  std::size_t n_points_ = 0;
  std::uint32_t seeds_ = 1;
  std::uint64_t seed_base_ = 0;
  std::size_t records_delivered_ = 0;
  bool severed_ = false;
};

}  // namespace

void check_liveness_tuning(const FleetTuning& tuning) {
  const std::string values = " (--heartbeat-ms " + std::to_string(tuning.heartbeat_ms) +
                             ", --heartbeat-timeout-ms " +
                             std::to_string(tuning.heartbeat_timeout_ms) + ")";
  if (tuning.heartbeat_ms == 0)
    throw std::invalid_argument(
        "fleet: workers told not to heartbeat are declared dead after the timeout" +
        values);
  if (tuning.heartbeat_timeout_ms <= tuning.heartbeat_ms)
    throw std::invalid_argument(
        "fleet: the heartbeat timeout must be greater than the heartbeat interval" +
        values);
}

// --- Worker side -------------------------------------------------------------

int worker_session(int fd) {
  WorkerState st;
  std::mutex send_mu;
  const SendPayload send = [fd, &send_mu](std::string_view payload) {
    std::lock_guard lock(send_mu);
    return send_frame(fd, payload);
  };

  std::thread heartbeat;
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  auto stop_heartbeat = [&] {
    {
      std::lock_guard lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    if (heartbeat.joinable()) heartbeat.join();
  };

  int exit_code = 0;
  try {
    std::string buf;
    std::string payload;
    for (;;) {
      while (take_frame(buf, payload)) {
        if (payload.empty()) throw CodecError("worker: empty frame");
        wire::Reader in{payload, 1};
        switch (static_cast<FrameKind>(payload[0])) {
          case FrameKind::kHandshake:
            worker_handshake(st, in);
            if (st.heartbeat_ms > 0 && !heartbeat.joinable()) {
              // The beacon runs on its own thread so a worker deep in a long
              // job still proves it is alive — the dispatcher's deadline,
              // not its heartbeat timeout, is what judges slow jobs.
              const std::uint32_t interval = st.heartbeat_ms;
              // &st is safe: st outlives the thread (stop_heartbeat joins
              // before worker_session returns), and the stats fields it reads
              // are atomics.
              heartbeat = std::thread([&st, &send, &hb_mu, &hb_cv, &hb_stop, interval] {
                std::unique_lock lock(hb_mu);
                for (;;) {
                  if (hb_cv.wait_for(lock, std::chrono::milliseconds(interval),
                                     [&] { return hb_stop; }))
                    return;
                  lock.unlock();
                  const bool ok = send(heartbeat_payload(st.stats_frame()));
                  lock.lock();
                  if (!ok) return;
                }
              });
            }
            break;
          case FrameKind::kJob:
            if (!worker_job(st, in, send)) {
              stop_heartbeat();
              return 1;  // dispatcher went away mid-send
            }
            break;
          default:
            throw CodecError("worker: unexpected frame kind");
        }
      }
      if (io::recv_some(fd, buf) != io::ReadResult::kData) break;  // EOF/reset
    }
  } catch (const std::exception& e) {
    send(error_payload(e.what()));
    exit_code = 1;
  } catch (...) {
    send(error_payload("unknown worker error"));
    exit_code = 1;
  }
  stop_heartbeat();
  return exit_code;
}

int make_listen_socket(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: bind: ") + std::strerror(saved));
  }
  if (::listen(fd, 16) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: listen: ") + std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: getsockname: ") +
                             std::strerror(saved));
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int serve_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return 1;
    }
    set_nodelay(fd);
    // One dispatcher at a time, each connection a fresh session: a crashed
    // dispatcher's rerun reconnects and starts clean.
    worker_session(fd);
    ::close(fd);
  }
}

int serve_main(std::uint16_t port) {
  std::uint16_t bound = 0;
  int listen_fd;
  try {
    listen_fd = make_listen_socket(port, bound);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsim: %s\n", e.what());
    return 1;
  }
  std::printf("ngsim: serving on port %u\n", bound);
  std::fflush(stdout);
  return serve_loop(listen_fd);
}

std::unique_ptr<Executor> make_fleet_executor(FleetOptions options) {
  return std::make_unique<FleetExecutor>(std::move(options));
}

}  // namespace bng::runner
