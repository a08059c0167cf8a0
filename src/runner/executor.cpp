#include "runner/executor.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "crypto/ecdsa.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "sim/experiment.hpp"

namespace bng::runner {

std::atomic<bool>& sweep_interrupt_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void throw_if_interrupted() {
  if (sweep_interrupt_flag().load(std::memory_order_relaxed)) throw SweepInterrupted();
}

RunRecord run_job(const Scenario& scenario, const SweepPoint& point,
                  std::uint32_t point_index, std::uint32_t ordinal,
                  std::shared_ptr<const sim::PrebuiltWorkload> pool,
                  obs::TraceRing* trace, obs::SweepTelemetry* telemetry) {
  sim::ExperimentConfig cfg = point.config;
  cfg.seed = job_seed(scenario.seed_base, point_index, ordinal);
  cfg.shared_workload = std::move(pool);
  cfg.trace = trace;

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  const crypto::SignatureCounts signatures_before = crypto::thread_signature_counts();
  const Clock::time_point simulate_start = Clock::now();
  sim::Experiment exp(std::move(cfg));
  exp.build();
  const Clock::time_point build_end = Clock::now();
  NamedValues hook_values;
  if (scenario.run) {
    scenario.run(exp, hook_values);
  } else {
    exp.run();
  }
  const Clock::time_point metrics_start = Clock::now();
  NamedValues values = standard_metric_values(exp);
  values.insert(values.end(), hook_values.begin(), hook_values.end());
  if (scenario.extra) scenario.extra(exp, values);
  RunRecord record = extract_record(exp, std::move(values), point_index, ordinal);
  if (telemetry != nullptr) {
    telemetry->add_phase_ms(ms_since(simulate_start, metrics_start),
                            ms_since(simulate_start, build_end),
                            ms_since(metrics_start, Clock::now()));
    telemetry->add_events(exp.queue().events_executed(), exp.network().deliveries_elided(),
                          exp.network().sent_by_kind());
    const crypto::SignatureCounts signatures = crypto::thread_signature_counts();
    telemetry->add_signatures(signatures.signs - signatures_before.signs,
                              signatures.verifies - signatures_before.verifies);
    telemetry->add_queue(exp.queue().reanchors(), exp.queue().near_pops(), exp.queue().slots(),
                         exp.queue().overflow_pushes());
  }
  return record;
}

namespace {

/// Shared state for one *distinct workload* (keyed by sim::workload_digest,
/// not by point): the lazily built tx pool and the count of jobs still due
/// to use it. Points whose config deltas do not touch the workload inputs —
/// e.g. an alpha x gamma attack grid — share a single pool, and the last
/// finishing job of the digest drops it so a long sweep holds at most
/// (active distinct workloads) pools.
struct PoolState {
  std::once_flag build_once;
  std::shared_ptr<const sim::PrebuiltWorkload> pool;
  std::atomic<std::uint32_t> remaining{0};
};

class ThreadPoolExecutor final : public Executor {
 public:
  explicit ThreadPoolExecutor(std::uint32_t jobs) : jobs_(jobs) {}

  std::uint32_t run(const ExecutionPlan& plan, const RecordSink& sink) override {
    const std::size_t n_jobs =
        plan.points.size() * static_cast<std::size_t>(plan.seeds);
    // Only jobs whose records the caller does not already hold run.
    std::vector<std::size_t> pending;
    pending.reserve(n_jobs);
    for (std::size_t job = 0; job < n_jobs; ++job)
      if (!plan_job_done(plan, job)) pending.push_back(job);

    std::uint32_t workers = jobs_;
    if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers, std::max<std::size_t>(pending.size(), 1)));

    std::unordered_map<std::uint64_t, std::unique_ptr<PoolState>> pool_states;
    std::vector<PoolState*> state_of_point(plan.points.size(), nullptr);
    if (plan.share_workload) {
      for (std::size_t p = 0; p < plan.points.size(); ++p) {
        auto& slot = pool_states[sim::workload_digest(plan.points[p].config)];
        if (!slot) slot = std::make_unique<PoolState>();
        state_of_point[p] = slot.get();
      }
      for (const std::size_t job : pending)
        state_of_point[job / plan.seeds]->remaining.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::size_t> next_job{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto run_one = [&](std::size_t job) {
      const std::size_t p = job / plan.seeds;
      const auto ordinal = static_cast<std::uint32_t>(job % plan.seeds);

      PoolState* const st = state_of_point[p];
      if (st != nullptr) {
        // The pool is a seed-independent pure function of the point config
        // (which job wins the call_once race must not matter), so the
        // config goes in with its seed untouched.
        std::call_once(st->build_once, [&] {
          const auto start = std::chrono::steady_clock::now();
          st->pool = sim::build_shared_workload(plan.points[p].config);
          const std::chrono::duration<double, std::milli> took =
              std::chrono::steady_clock::now() - start;
          if (plan.telemetry != nullptr) plan.telemetry->add_workload_ms(took.count());
        });
      }
      // run_job scopes the experiment, so it is destroyed on this worker
      // thread before the pool refcount below is released.
      auto pool = st != nullptr ? st->pool : nullptr;
      if (plan.trace_mask != 0) {
        obs::TraceRing ring(plan.trace_mask);
        sink(run_job(plan.scenario, plan.points[p], static_cast<std::uint32_t>(p),
                     ordinal, std::move(pool), &ring, plan.telemetry));
        if (plan.trace_sink)
          plan.trace_sink(static_cast<std::uint32_t>(p), ordinal, ring);
      } else {
        sink(run_job(plan.scenario, plan.points[p], static_cast<std::uint32_t>(p),
                     ordinal, std::move(pool), nullptr, plan.telemetry));
      }
      if (st != nullptr && st->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (plan.telemetry != nullptr)
          plan.telemetry->add_pool(st->pool->workload.size(), st->pool->workload.built());
        st->pool.reset();
      }
    };

    auto worker_loop = [&] {
      for (;;) {
        const std::size_t slot = next_job.fetch_add(1, std::memory_order_relaxed);
        if (slot >= pending.size()) return;
        try {
          throw_if_interrupted();
          run_one(pending[slot]);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          // Drain the queue: later jobs are skipped once a job has failed.
          next_job.store(pending.size(), std::memory_order_relaxed);
          return;
        }
      }
    };

    // The calling thread is one of the workers, so a one-worker run (every
    // --jobs 1 job) starts no thread.
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (std::uint32_t w = 1; w < workers; ++w) threads.emplace_back(worker_loop);
    worker_loop();
    for (auto& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
    return workers;
  }

 private:
  std::uint32_t jobs_;
};

}  // namespace

std::unique_ptr<Executor> make_thread_executor(std::uint32_t jobs) {
  return std::make_unique<ThreadPoolExecutor>(jobs);
}

}  // namespace bng::runner
