#include "runner/sweep.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "runner/cache.hpp"
#include "runner/executor.hpp"

namespace bng::runner {

namespace {

/// Background stderr progress reporter: one line every ~500 ms plus a final
/// line on stop. Cosmetic only — it never touches sweep results.
class ProgressReporter {
 public:
  explicit ProgressReporter(const obs::SweepTelemetry& telemetry)
      : telemetry_(telemetry), thread_([this] { loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    emit();  // final state, always printed (sweeps can finish in < 500 ms)
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      emit();
      cv_.wait_for(lock, std::chrono::milliseconds(500), [this] { return stop_; });
    }
  }

  void emit() {
    const std::string line = telemetry_.progress_line();
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  const obs::SweepTelemetry& telemetry_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::unique_ptr<Executor> make_sweep_executor(const SweepOptions& options,
                                              obs::SweepTelemetry* telemetry) {
  if (options.hosts.empty() && options.procs == 0)
    return make_thread_executor(options.jobs);
  FleetOptions fopt;
  fopt.hosts = options.hosts;
  fopt.procs = options.procs;
  fopt.worker_argv = options.worker_argv;
  fopt.tuning = options.fleet;
  fopt.telemetry = telemetry;
  fopt.test_kill_worker0_after_jobs = options.test_kill_worker0_after_jobs;
  fopt.test_hang_worker0_after_jobs = options.test_hang_worker0_after_jobs;
  fopt.test_sever_worker0_after_records = options.test_sever_worker0_after_records;
  fopt.test_interrupt_after_records = options.test_interrupt_after_records;
  return make_fleet_executor(std::move(fopt));
}

SweepResult run_sweep(const Scenario& scenario, const SweepOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  if (options.trace_mask != 0) {
    if (options.procs > 0 || !options.hosts.empty())
      throw std::runtime_error(
          "run_sweep: --trace requires the in-process executor (no --procs/--hosts)");
    if (options.trace_path.empty())
      throw std::runtime_error("run_sweep: trace_mask set but trace_path empty");
  }

  const std::vector<SweepPoint> points = expand(scenario);
  const std::uint32_t seeds = std::max<std::uint32_t>(options.seeds, 1);
  const std::size_t n_jobs = points.size() * static_cast<std::size_t>(seeds);

  // Telemetry: caller-provided, or a local instance when only --progress
  // needs one. Null `tel` disables all accounting.
  obs::SweepTelemetry local_telemetry;
  obs::SweepTelemetry* tel = options.telemetry;
  if (tel == nullptr && options.progress) tel = &local_telemetry;

  SweepResult result;
  result.scenario = scenario.name;
  result.description = scenario.description;
  result.seeds = seeds;
  result.procs = options.procs;
  result.points.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    result.points[p].labels = points[p].labels;
    result.points[p].x = points[p].x;
    result.points[p].seeds.resize(seeds);
  }

  // Cache prefill: jobs the cache answers are marked done, so executors
  // never see them, and a fully cached sweep builds no executor at all.
  // Records are pure functions of (scenario, point, ordinal), so prefilled
  // and freshly computed slots are indistinguishable in the artifacts.
  RunCache* const cache = options.cache;
  const CacheSyncGuard sync_on_exit(cache);
  std::vector<std::uint8_t> done;
  std::size_t prefilled = 0;
  if (cache != nullptr) {
    done.assign(n_jobs, 0);
    for (std::uint32_t p = 0; p < points.size(); ++p)
      for (std::uint32_t o = 0; o < seeds; ++o)
        if (std::optional<RunRecord> hit = cache->lookup(scenario, points[p], p, o)) {
          result.points[p].seeds[o] = *std::move(hit);
          done[static_cast<std::size_t>(p) * seeds + o] = 1;
          ++prefilled;
        }
  }

  // Records stream in carrying their own identity and land in their slot:
  // the merge order is a function of (point, ordinal) alone, never of
  // executor scheduling — that is what makes --procs N and --hosts a,b
  // bit-identical to --jobs 1. The cache stores each record before its
  // slot is assigned, so a crash never loses an acknowledged slot.
  std::atomic<std::size_t> delivered{0};
  auto sink = [&](RunRecord rec) {
    if (rec.point >= result.points.size() || rec.ordinal >= seeds)
      throw std::runtime_error("run_sweep: record identity out of range");
    if (cache != nullptr) cache->store(scenario, points[rec.point], rec);
    result.points[rec.point].seeds[rec.ordinal] = std::move(rec);
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (tel != nullptr) tel->on_record_delivered();
  };

  if (tel != nullptr) {
    tel->start(n_jobs);
    tel->add_prefilled(prefilled);
  }

  // Decision-trace output: one JSONL stream shared by all worker threads.
  std::ofstream trace_out;
  std::mutex trace_mu;
  ExecutionPlan plan{scenario, points, seeds, options.share_workload,
                     done.empty() ? nullptr : &done};
  plan.trace_mask = options.trace_mask;
  plan.telemetry = tel;
  if (options.trace_mask != 0) {
    trace_out.open(options.trace_path, std::ios::trunc);
    if (!trace_out)
      throw std::runtime_error("run_sweep: cannot open trace file " +
                               options.trace_path);
    plan.trace_sink = [&](std::uint32_t point, std::uint32_t ordinal,
                          const obs::TraceRing& ring) {
      std::string lines;
      ring.emit_jsonl(lines, point, ordinal);
      std::lock_guard lock(trace_mu);
      trace_out << lines;
    };
  }

  const std::size_t holes = n_jobs - prefilled;
  if (holes > 0) {
    std::unique_ptr<Executor> executor = make_sweep_executor(options, tel);
    std::unique_ptr<ProgressReporter> reporter;
    if (options.progress && tel != nullptr)
      reporter = std::make_unique<ProgressReporter>(*tel);
    result.jobs = executor->run(plan, sink);
  } else {
    result.jobs = 1;  // fully cached: nothing dispatched
  }

  if (delivered.load(std::memory_order_relaxed) != holes)
    throw std::runtime_error("run_sweep: executor lost records (" +
                             std::to_string(delivered.load()) + " of " +
                             std::to_string(holes) + " delivered)");

  for (PointResult& point : result.points) {
    std::vector<NamedValues> records;
    records.reserve(point.seeds.size());
    for (const RunRecord& r : point.seeds) records.push_back(r.values);
    point.aggregates = aggregate_records(records);
  }

  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace bng::runner
