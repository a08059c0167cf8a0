#include "obs/telemetry.hpp"

#include <cstdio>
#include <fstream>

#include "crypto/sha256.hpp"
#include "runner/record_codec.hpp"  // json_escape

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace bng::obs {

void SweepTelemetry::start(std::size_t total_jobs) {
  std::lock_guard lock(mu_);
  total_jobs_ = total_jobs;
  prefilled_ = 0;
  delivered_ = 0;
  events_total_ = 0;
  elided_total_ = 0;
  has_messages_ = false;
  messages_ = {};
  has_signatures_ = false;
  signed_ = 0;
  verified_ = 0;
  phase_jobs_ = 0;
  simulate_ms_ = 0;
  metrics_ms_ = 0;
  workload_ms_ = 0;
  build_ms_ = 0;
  has_pool_ = false;
  pool_txs_ = 0;
  pool_built_ = 0;
  started_ = std::chrono::steady_clock::now();
}

void SweepTelemetry::add_prefilled(std::size_t n) {
  std::lock_guard lock(mu_);
  prefilled_ += n;
}

void SweepTelemetry::on_record_delivered() {
  std::lock_guard lock(mu_);
  ++delivered_;
}

void SweepTelemetry::add_events(std::uint64_t executed, std::uint64_t elided,
                                const MessageCounts& sent) {
  std::lock_guard lock(mu_);
  events_total_ += executed;
  elided_total_ += elided;
  has_messages_ = true;
  for (std::size_t k = 0; k < sent.size(); ++k) messages_[k] += sent[k];
}

void SweepTelemetry::add_signatures(std::uint64_t signed_count, std::uint64_t verified) {
  std::lock_guard lock(mu_);
  has_signatures_ = true;
  signed_ += signed_count;
  verified_ += verified;
}

void SweepTelemetry::add_phase_ms(double simulate_ms, double build_ms, double metrics_ms) {
  std::lock_guard lock(mu_);
  ++phase_jobs_;
  simulate_ms_ += simulate_ms;
  build_ms_ += build_ms;
  metrics_ms_ += metrics_ms;
}

void SweepTelemetry::add_workload_ms(double ms) {
  std::lock_guard lock(mu_);
  workload_ms_ += ms;
}

void SweepTelemetry::add_pool(std::uint64_t txs, std::uint64_t built) {
  std::lock_guard lock(mu_);
  has_pool_ = true;
  pool_txs_ += txs;
  pool_built_ += built;
}

std::uint64_t SweepTelemetry::peak_rss_bytes() {
  std::ifstream status("/proc/self/status");  // "VmHWM:   12345 kB"
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
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

void SweepTelemetry::cache_stats(const CacheCounters& counters) {
  std::lock_guard lock(mu_);
  has_cache_ = true;
  cache_ = counters;
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
  std::string j = "{\n  \"scenario\": \"" + runner::json_escape(scenario) + "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"records_total\": %zu,\n"
                "  \"records_prefilled\": %zu,\n  \"records_done\": %zu,\n"
                "  \"wall_s\": %.3f",
                total_jobs_, prefilled_, prefilled_ + delivered_, wall_s);
  j += buf;
  std::snprintf(buf, sizeof buf, ",\n  \"events_executed\": %llu,\n  \"deliveries_elided\": %llu",
                static_cast<unsigned long long>(events_total_),
                static_cast<unsigned long long>(elided_total_));
  j += buf;
  if (has_messages_) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"messages\": {\"inv\": %llu, \"getdata\": %llu, \"block\": %llu, "
                  "\"ignored\": %llu}",
                  static_cast<unsigned long long>(messages_[1]),
                  static_cast<unsigned long long>(messages_[2]),
                  static_cast<unsigned long long>(messages_[3]),
                  static_cast<unsigned long long>(messages_[0]));
    j += buf;
  }
  if (has_signatures_) {
    std::snprintf(buf, sizeof buf, ",\n  \"signatures\": {\"signed\": %llu, \"verified\": %llu}",
                  static_cast<unsigned long long>(signed_),
                  static_cast<unsigned long long>(verified_));
    j += buf;
  }
  std::snprintf(buf, sizeof buf,
                ",\n  \"events_per_sec\": %.1f,\n"
                "  \"rss_peak_mb\": %.1f,\n  \"sha256\": \"%s\"",
                wall_s > 0 ? static_cast<double>(events_total_) / wall_s : 0.0,
                static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                crypto::sha256_kernel_name(crypto::sha256_kernel()));
  j += buf;
  if (phase_jobs_ > 0) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"phases\": {\"jobs\": %llu, \"simulate_ms\": %.3f, "
                  "\"metrics_ms\": %.3f, \"workload_ms\": %.3f, \"build_ms\": %.3f}",
                  static_cast<unsigned long long>(phase_jobs_), simulate_ms_, metrics_ms_,
                  workload_ms_, build_ms_);
    j += buf;
  }
  if (has_pool_) {
    std::snprintf(buf, sizeof buf, ",\n  \"pool\": {\"txs\": %llu, \"built\": %llu}",
                  static_cast<unsigned long long>(pool_txs_),
                  static_cast<unsigned long long>(pool_built_));
    j += buf;
  }
  if (has_cache_) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                  "\"stale\": %llu, \"stores\": %llu, \"write_failures\": %llu, "
                  "\"fsyncs\": %llu, \"fsync_total_ms\": %.3f, \"fsync_max_ms\": %.3f}",
                  static_cast<unsigned long long>(cache_.hits),
                  static_cast<unsigned long long>(cache_.misses),
                  static_cast<unsigned long long>(cache_.stale),
                  static_cast<unsigned long long>(cache_.stores),
                  static_cast<unsigned long long>(cache_.write_failures),
                  static_cast<unsigned long long>(cache_.fsyncs), cache_.fsync_total_ms,
                  cache_.fsync_max_ms);
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
  j += ",\n  \"workers\": [";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerTelemetry& w = workers_[i];
    j += i == 0 ? "\n    {\"endpoint\": \"" : ",\n    {\"endpoint\": \"";
    j += runner::json_escape(w.endpoint);
    std::snprintf(
        buf, sizeof buf,
        "\", \"alive\": %s, \"abandoned\": %s, "
        "\"records\": %llu, \"inflight\": %u, \"reconnects\": %u, "
        "\"speculation_wins\": %u, \"heartbeats\": %llu, \"max_silence_ms\": %llu, "
        "\"reported\": {\"jobs_done\": %u, \"pool_rebuilds\": %u, \"busy_ms\": %llu}}",
        w.alive ? "true" : "false",
        w.abandoned ? "true" : "false", static_cast<unsigned long long>(w.records),
        w.inflight, w.reconnects, w.speculation_wins,
        static_cast<unsigned long long>(w.heartbeats),
        static_cast<unsigned long long>(w.max_silence_ms), w.reported.jobs_done,
        w.reported.pool_rebuilds, static_cast<unsigned long long>(w.reported.busy_ms));
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
