#include "obs/telemetry.hpp"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace bng::obs {

void SweepTelemetry::start(std::size_t total_jobs, std::size_t prefilled) {
  std::lock_guard lock(mu_);
  total_jobs_ = total_jobs;
  prefilled_ = prefilled;
  delivered_ = 0;
  events_total_ = 0;
  phase_jobs_ = 0;
  simulate_ms_ = 0;
  metrics_ms_ = 0;
  started_ = std::chrono::steady_clock::now();
}

void SweepTelemetry::on_record_delivered() {
  std::lock_guard lock(mu_);
  ++delivered_;
}

void SweepTelemetry::add_events(std::uint64_t n) {
  std::lock_guard lock(mu_);
  events_total_ += n;
}

void SweepTelemetry::add_phase_ms(double simulate_ms, double metrics_ms) {
  std::lock_guard lock(mu_);
  ++phase_jobs_;
  simulate_ms_ += simulate_ms;
  metrics_ms_ += metrics_ms;
}

std::uint64_t SweepTelemetry::peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void SweepTelemetry::journal_stats(std::uint64_t fsyncs, double total_ms,
                                   double max_ms) {
  std::lock_guard lock(mu_);
  has_journal_ = true;
  journal_fsyncs_ = fsyncs;
  journal_fsync_total_ms_ = total_ms;
  journal_fsync_max_ms_ = max_ms;
}

void SweepTelemetry::cache_stats(std::uint64_t hits, std::uint64_t misses,
                                 std::uint64_t stale, std::uint64_t stores) {
  std::lock_guard lock(mu_);
  has_cache_ = true;
  cache_hits_ = hits;
  cache_misses_ = misses;
  cache_stale_ = stale;
  cache_stores_ = stores;
}

void SweepTelemetry::adaptive_stats(std::size_t dense_points, std::size_t dense_jobs,
                                    std::size_t evaluated_points,
                                    std::size_t jobs_dispatched) {
  std::lock_guard lock(mu_);
  has_adaptive_ = true;
  adaptive_dense_points_ = dense_points;
  adaptive_dense_jobs_ = dense_jobs;
  adaptive_evaluated_points_ = evaluated_points;
  adaptive_jobs_dispatched_ = jobs_dispatched;
}

void SweepTelemetry::add_parallel_delta(double busy_ms, double stall_ms) {
  std::lock_guard lock(mu_);
  has_parallel_ = true;
  par_busy_ms_ += busy_ms;
  par_stall_ms_ += stall_ms;
}

void SweepTelemetry::add_parallel_run(const ParallelFrame& frame) {
  std::lock_guard lock(mu_);
  has_parallel_ = true;
  if (frame.shards > par_shards_max_) par_shards_max_ = frame.shards;
  ++par_runs_;
  par_windows_ += frame.windows;
  par_lane_messages_ += frame.lane_messages;
  par_arena_bytes_ += frame.arena_local_bytes;
  if (par_runs_ == 1 || frame.window_min_s < par_window_min_s_)
    par_window_min_s_ = frame.window_min_s;
  par_window_sum_s_ += frame.window_avg_s * static_cast<double>(frame.windows);
  par_shard_seconds_ += frame.wall_ms / 1000.0 * frame.shards;
  par_events_ += frame.events;
}

void SweepTelemetry::init_workers(const std::vector<std::string>& endpoints) {
  std::lock_guard lock(mu_);
  workers_.clear();
  workers_.resize(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i)
    workers_[i].endpoint = endpoints[i];
}

void SweepTelemetry::update_worker(std::size_t index, const WorkerTelemetry& w) {
  std::lock_guard lock(mu_);
  if (index < workers_.size()) workers_[index] = w;
}

std::string SweepTelemetry::progress_line() const {
  std::lock_guard lock(mu_);
  char buf[256];
  const std::size_t done = prefilled_ + delivered_;
  int n = std::snprintf(buf, sizeof buf, "[progress] records=%zu/%zu", done,
                        total_jobs_);
  std::string out(buf, static_cast<std::size_t>(n));
  if (events_total_ > 0) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started_)
                               .count();
    n = std::snprintf(buf, sizeof buf, " events_per_sec=%.3g",
                      elapsed > 0 ? static_cast<double>(events_total_) / elapsed : 0.0);
    out.append(buf, static_cast<std::size_t>(n));
  }
  n = std::snprintf(buf, sizeof buf, " rss_peak_mb=%.1f",
                    static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  out.append(buf, static_cast<std::size_t>(n));
  if (has_parallel_) {
    const double total = par_busy_ms_ + par_stall_ms_;
    n = std::snprintf(buf, sizeof buf, " shards=%u par_eff=%.0f%%",
                      par_shards_max_, total > 0 ? 100.0 * par_busy_ms_ / total : 100.0);
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (!workers_.empty()) {
    std::size_t alive = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t spec_wins = 0;
    for (const WorkerTelemetry& w : workers_) {
      if (w.alive) ++alive;
      reconnects += w.reconnects;
      spec_wins += w.speculation_wins;
    }
    n = std::snprintf(buf, sizeof buf,
                      " workers_alive=%zu/%zu reconnects=%llu spec_wins=%llu", alive,
                      workers_.size(), static_cast<unsigned long long>(reconnects),
                      static_cast<unsigned long long>(spec_wins));
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string SweepTelemetry::to_json(const std::string& scenario, double wall_s) const {
  std::lock_guard lock(mu_);
  char buf[768];
  std::string j = "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"scenario\": \"%s\",\n  \"records_total\": %zu,\n"
                "  \"records_prefilled\": %zu,\n  \"records_done\": %zu,\n"
                "  \"wall_s\": %.3f",
                scenario.c_str(), total_jobs_, prefilled_, prefilled_ + delivered_,
                wall_s);
  j += buf;
  std::snprintf(buf, sizeof buf,
                ",\n  \"events_executed\": %llu,\n  \"events_per_sec\": %.1f,\n"
                "  \"rss_peak_mb\": %.1f",
                static_cast<unsigned long long>(events_total_),
                wall_s > 0 ? static_cast<double>(events_total_) / wall_s : 0.0,
                static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  j += buf;
  if (phase_jobs_ > 0) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"phases\": {\"jobs\": %llu, \"simulate_ms\": %.3f, "
                  "\"metrics_ms\": %.3f}",
                  static_cast<unsigned long long>(phase_jobs_), simulate_ms_, metrics_ms_);
    j += buf;
  }
  if (has_journal_) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"journal\": {\"fsyncs\": %llu, \"fsync_total_ms\": %.3f, "
                  "\"fsync_max_ms\": %.3f}",
                  static_cast<unsigned long long>(journal_fsyncs_),
                  journal_fsync_total_ms_, journal_fsync_max_ms_);
    j += buf;
  }
  if (has_cache_) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                  "\"stale\": %llu, \"stores\": %llu}",
                  static_cast<unsigned long long>(cache_hits_),
                  static_cast<unsigned long long>(cache_misses_),
                  static_cast<unsigned long long>(cache_stale_),
                  static_cast<unsigned long long>(cache_stores_));
    j += buf;
  }
  if (has_adaptive_) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"adaptive\": {\"dense_points\": %zu, \"dense_jobs\": %zu, "
                  "\"evaluated_points\": %zu, \"jobs_dispatched\": %zu}",
                  adaptive_dense_points_, adaptive_dense_jobs_,
                  adaptive_evaluated_points_, adaptive_jobs_dispatched_);
    j += buf;
  }
  if (has_parallel_) {
    const double total = par_busy_ms_ + par_stall_ms_;
    std::snprintf(
        buf, sizeof buf,
        ",\n  \"parallel\": {\"shards\": %u, \"runs\": %llu, \"windows\": %llu, "
        "\"busy_ms\": %.1f, \"barrier_stall_ms\": %.1f, \"efficiency\": %.3f, "
        "\"lane_messages\": %llu, \"arena_local_bytes\": %llu",
        par_shards_max_, static_cast<unsigned long long>(par_runs_),
        static_cast<unsigned long long>(par_windows_), par_busy_ms_, par_stall_ms_,
        total > 0 ? par_busy_ms_ / total : 1.0,
        static_cast<unsigned long long>(par_lane_messages_),
        static_cast<unsigned long long>(par_arena_bytes_));
    j += buf;
    std::snprintf(
        buf, sizeof buf,
        ", \"window_min_s\": %.6g, \"window_avg_s\": %.6g, "
        "\"per_shard_events_per_sec\": %.3g}",
        par_window_min_s_,
        par_windows_ > 0 ? par_window_sum_s_ / static_cast<double>(par_windows_) : 0.0,
        par_shard_seconds_ > 0 ? static_cast<double>(par_events_) / par_shard_seconds_
                               : 0.0);
    j += buf;
  }
  j += ",\n  \"workers\": [";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerTelemetry& w = workers_[i];
    std::snprintf(
        buf, sizeof buf,
        "%s\n    {\"endpoint\": \"%s\", \"alive\": %s, \"abandoned\": %s, "
        "\"records\": %llu, \"inflight\": %u, \"reconnects\": %u, "
        "\"speculation_wins\": %u, \"heartbeats\": %llu, \"max_silence_ms\": %llu, "
        "\"reported\": {\"jobs_done\": %u, \"pool_rebuilds\": %u, \"busy_ms\": %llu, "
        "\"cache_hits\": %u, \"cache_misses\": %u, \"cache_stale\": %u, "
        "\"cache_stores\": %u}}",
        i == 0 ? "" : ",", w.endpoint.c_str(), w.alive ? "true" : "false",
        w.abandoned ? "true" : "false", static_cast<unsigned long long>(w.records),
        w.inflight, w.reconnects, w.speculation_wins,
        static_cast<unsigned long long>(w.heartbeats),
        static_cast<unsigned long long>(w.max_silence_ms), w.reported.jobs_done,
        w.reported.pool_rebuilds, static_cast<unsigned long long>(w.reported.busy_ms),
        w.reported.cache_hits, w.reported.cache_misses, w.reported.cache_stale,
        w.reported.cache_stores);
    j += buf;
  }
  j += workers_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return j;
}

std::size_t SweepTelemetry::records_done() const {
  std::lock_guard lock(mu_);
  return prefilled_ + delivered_;
}

std::size_t SweepTelemetry::total_jobs() const {
  std::lock_guard lock(mu_);
  return total_jobs_;
}

std::vector<WorkerTelemetry> SweepTelemetry::workers() const {
  std::lock_guard lock(mu_);
  return workers_;
}

}  // namespace bng::obs
