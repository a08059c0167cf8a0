// Content-addressed RunRecord cache: the one place a finished record is kept.
//
// A record is a pure function of (scenario, point config, seed), so once a
// job has run anywhere it never needs to run again: entries are addressed by
// the resolved point-config digest plus the seed, verified against a hash of
// the scenario *source* (builtin name / inline text + knobs), and carry the
// record in the byte-stable record_codec form. The dispatcher owns the
// cache: run_sweep and run_adaptive look each job up before handing it to
// any executor and store each delivered record before it lands in its slot,
// so caching behaves identically under --jobs, --procs and --hosts, and a
// fully cached sweep sends no job anywhere.
//
// Invalidation is by key, never by time: editing the scenario source (or
// bumping the knobs it was instantiated with) changes the scenario hash and
// turns every old entry stale; changing any config field that affects the
// run changes the config digest and misses instead. Stale entries are
// counted and overwritten in place on the next store.
//
// Durability: the cache is also how a killed sweep resumes — rerun the same
// command with the same directory and only the missing jobs run. Each
// entry's temp file is fsync'd before its rename, so a renamed entry is
// never empty, and the directories that stores touched are fsync'd every
// kSyncBatch stores and by sync(), which run_sweep and run_adaptive reach
// through a CacheSyncGuard at sweep end and on every unwind. Lookups never
// fsync.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "obs/telemetry.hpp"
#include "runner/record.hpp"
#include "runner/scenario.hpp"

namespace bng::runner {

/// Bump when the entry layout changes; readers treat foreign versions as
/// stale (they are overwritten, not errors).
inline constexpr std::uint16_t kCacheVersion = 1;

struct CacheKey {
  std::uint64_t scenario_hash = 0;  ///< scenario_source_hash()
  std::uint64_t config_digest = 0;  ///< sim::config_digest(point config)
  std::uint64_t seed = 0;           ///< the job seed (job_seed identity)
};

/// FNV-1a over the scenario's serialized identity: source kind, the builtin
/// name or inline text, the knobs it was instantiated with, and seed_base.
/// This is the part of a record's provenance the config digest cannot see —
/// an edited scenario file yields a new hash even when a given point's
/// resolved config is unchanged, so old entries are rejected as stale.
[[nodiscard]] std::uint64_t scenario_source_hash(const Scenario& s);

/// The key of job (point_index, ordinal), or nullopt when the job cannot be
/// cached: a scenario without a serializable source, or a config with a
/// node_factory, has nothing to key on and always runs fresh.
[[nodiscard]] std::optional<CacheKey> job_cache_key(const Scenario& scenario,
                                                    const SweepPoint& point,
                                                    std::uint32_t point_index,
                                                    std::uint32_t ordinal);

/// Directory-backed record store. One entry per (config digest, seed) under
/// `dir/<hh>/<config_digest>-<seed>.bngc` (hh = first byte of the config
/// digest in hex, to keep directories small). Thread-safe; stores are
/// write-to-temp + fsync + rename, so concurrent processes sharing a
/// directory never observe torn entries.
class RunCache {
 public:
  /// Stores between two fsyncs of the directories they touched.
  static constexpr std::uint32_t kSyncBatch = 8;

  /// Creates `dir` (and parents) if missing. Throws std::runtime_error when
  /// the directory cannot be created.
  explicit RunCache(std::string dir);

  /// The cached record of job (point_index, ordinal), stamped with that
  /// identity — an entry is keyed by (config, seed), so it can answer for a
  /// different grid position than the one that stored it (a refined subset
  /// vs the dense grid). nullopt on a miss, a stale or corrupt entry, or an
  /// uncacheable job.
  [[nodiscard]] std::optional<RunRecord> lookup(const Scenario& scenario,
                                                const SweepPoint& point,
                                                std::uint32_t point_index,
                                                std::uint32_t ordinal);

  /// Insert or overwrite the entry of the job that produced `record` (its
  /// own (point, ordinal) identity), `point` being that job's sweep point.
  /// A failure never fails the sweep; it is counted in write_failures.
  void store(const Scenario& scenario, const SweepPoint& point, const RunRecord& record);

  /// Fsync every directory a store touched since the last sync.
  void sync();

  using Counters = obs::CacheCounters;
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  [[nodiscard]] std::string entry_path(const CacheKey& key) const;
  [[nodiscard]] std::optional<RunRecord> read_entry(const CacheKey& key);
  void sync_locked();

  std::string dir_;
  mutable std::mutex mu_;
  Counters counters_;
  std::set<std::string> unsynced_dirs_;
  std::uint32_t unsynced_stores_ = 0;
};

/// Syncs a cache when it leaves scope. run_sweep and run_adaptive each hold
/// one for the whole sweep, so the last batch of stores reaches the disk on
/// every exit path: sweep end, an interrupt, a failed job. A null cache does
/// nothing.
class CacheSyncGuard {
 public:
  explicit CacheSyncGuard(RunCache* cache) : cache_(cache) {}
  ~CacheSyncGuard() {
    if (cache_ != nullptr) cache_->sync();
  }
  CacheSyncGuard(const CacheSyncGuard&) = delete;
  CacheSyncGuard& operator=(const CacheSyncGuard&) = delete;

 private:
  RunCache* cache_;
};

}  // namespace bng::runner
