#include "runner/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "runner/digest.hpp"
#include "runner/io_util.hpp"
#include "runner/record_codec.hpp"

namespace bng::runner {

namespace {

constexpr char kCacheMagic[4] = {'B', 'N', 'G', 'C'};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// fsync(fd), returning its wall time in ms; `ok` reports success.
double timed_fsync(int fd, bool& ok) {
  const auto t0 = std::chrono::steady_clock::now();
  ok = ::fsync(fd) == 0;
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void count_fsync(obs::CacheCounters& c, double ms) {
  ++c.fsyncs;
  c.fsync_total_ms += ms;
  c.fsync_max_ms = std::max(c.fsync_max_ms, ms);
}

/// Write `bytes` to `tmp` and fsync it before the caller renames it into
/// place; `fsync_ms` gets the fsync's time when one was made. False on any
/// failure, with `tmp` removed.
bool write_synced(const std::string& tmp, const std::string& bytes,
                  std::optional<double>& fsync_ms) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = io::write_all(fd, bytes);
  if (ok) fsync_ms = timed_fsync(fd, ok);
  if (::close(fd) != 0) ok = false;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

}  // namespace

std::uint64_t scenario_source_hash(const Scenario& s) {
  Digest d;
  if (!s.source) return 0;  // callers gate on source presence; 0 is never stored
  d.u64(static_cast<std::uint64_t>(s.source->kind));
  d.u64(s.source->ref.size());
  d.bytes(s.source->ref.data(), s.source->ref.size());
  d.u64(s.source->knobs.nodes);
  d.u64(s.source->knobs.blocks);
  d.u64(s.seed_base);
  return d.h;
}

std::optional<CacheKey> job_cache_key(const Scenario& scenario, const SweepPoint& point,
                                      std::uint32_t point_index, std::uint32_t ordinal) {
  if (!scenario.source.has_value() || !sim::config_cacheable(point.config))
    return std::nullopt;
  CacheKey key;
  key.scenario_hash = scenario_source_hash(scenario);
  key.config_digest = sim::config_digest(point.config);
  key.seed = job_seed(scenario.seed_base, point_index, ordinal);
  return key;
}

RunCache::RunCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw std::runtime_error("--cache: cannot create directory " + dir_ + ": " + ec.message());
}

std::string RunCache::entry_path(const CacheKey& key) const {
  const std::string digest_hex = hex16(key.config_digest);
  return dir_ + "/" + digest_hex.substr(0, 2) + "/" + digest_hex + "-" + hex16(key.seed) + ".bngc";
}

std::optional<RunRecord> RunCache::lookup(const Scenario& scenario, const SweepPoint& point,
                                          std::uint32_t point_index, std::uint32_t ordinal) {
  const std::optional<CacheKey> key = job_cache_key(scenario, point, point_index, ordinal);
  if (!key) return std::nullopt;
  std::optional<RunRecord> rec = read_entry(*key);
  if (rec) {
    rec->point = point_index;
    rec->ordinal = ordinal;
  }
  return rec;
}

std::optional<RunRecord> RunCache::read_entry(const CacheKey& key) {
  const std::string path = entry_path(key);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::lock_guard lock(mu_);
      ++counters_.misses;
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }

  const auto stale = [&]() -> std::optional<RunRecord> {
    std::lock_guard lock(mu_);
    ++counters_.stale;
    return std::nullopt;
  };

  try {
    wire::Reader in{bytes};
    const std::string magic = in.str(4);
    if (magic != std::string_view(kCacheMagic, 4)) return stale();
    if (in.u16() != kCacheVersion) return stale();
    if (in.u64() != key.scenario_hash) return stale();
    if (in.u64() != key.config_digest) return stale();
    if (in.u64() != key.seed) return stale();
    const std::uint32_t len = in.u32();
    RunRecord rec = decode_record(in.str(len));
    if (in.pos != bytes.size()) return stale();
    if (rec.seed != key.seed) return stale();
    std::lock_guard lock(mu_);
    ++counters_.hits;
    return rec;
  } catch (const CodecError&) {
    return stale();  // truncated/corrupt entry: treat as absent, overwrite later
  }
}

void RunCache::store(const Scenario& scenario, const SweepPoint& point,
                     const RunRecord& record) {
  const std::optional<CacheKey> key =
      job_cache_key(scenario, point, record.point, record.ordinal);
  if (!key) return;

  std::string payload;
  payload.append(kCacheMagic, 4);
  wire::put_u16(payload, kCacheVersion);
  wire::put_u64(payload, key->scenario_hash);
  wire::put_u64(payload, key->config_digest);
  wire::put_u64(payload, key->seed);
  const std::string bytes = encode_record(record);
  wire::put_u32(payload, static_cast<std::uint32_t>(bytes.size()));
  payload += bytes;

  const std::string path = entry_path(*key);
  const std::string shard = std::filesystem::path(path).parent_path().string();
  std::error_code ec;
  const bool new_shard = std::filesystem::create_directory(shard, ec);
  // Write-to-temp + fsync + rename: concurrent readers (other processes
  // sharing the directory) see either the old entry or the complete new
  // one, and a crash after the rename never leaves an empty entry. The temp
  // name includes this process's pid so concurrent writers of the same key
  // do not clobber each other's partial files.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::optional<double> fsync_ms;
  bool ok = !ec && write_synced(tmp, payload, fsync_ms);
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      ok = false;
    }
  }

  std::lock_guard lock(mu_);
  if (fsync_ms) count_fsync(counters_, *fsync_ms);
  // A rename is durable once its directory is, and a new shard directory is
  // itself an entry of the root.
  if (new_shard) unsynced_dirs_.insert(dir_);
  if (!ok) {
    ++counters_.write_failures;
    return;
  }
  ++counters_.stores;
  unsynced_dirs_.insert(shard);
  if (++unsynced_stores_ >= kSyncBatch) sync_locked();
}

void RunCache::sync() {
  std::lock_guard lock(mu_);
  sync_locked();
}

void RunCache::sync_locked() {
  for (const std::string& dir : unsynced_dirs_) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    bool ok = false;
    if (fd >= 0) {
      count_fsync(counters_, timed_fsync(fd, ok));
      ::close(fd);
    }
    if (!ok) ++counters_.write_failures;
  }
  unsynced_dirs_.clear();
  unsynced_stores_ = 0;
}

RunCache::Counters RunCache::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

}  // namespace bng::runner
