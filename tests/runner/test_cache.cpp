// Content-addressed record cache, the sweep's one record store: warm sweeps
// are byte-identical to cold ones for any executor, entries written under
// one run answer the next through the shared directory, torn or foreign
// entries are never served, an interrupted sweep resumes by rerunning
// against the same cache, and failed writes are counted, never fatal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "runner/cache.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

/// A 2-point inline-source mini sweep (2 points x 2 seeds = 4 jobs below).
/// The inline text is the scenario's cache identity, so appending `tail`
/// changes the scenario hash without touching any resolved point config.
Scenario cache_mini(const std::string& tail = {}, std::uint32_t blocks = 3) {
  const std::string text =
      "name = cache_mini\n"
      "seed_base = 7400\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 9\n"
      "base.max_block_size = 4000\n"
      "axis.nodes = 12, 16\n" +
      tail;
  return load_scenario_string(text, "<test>", RunKnobs{16, blocks});
}

/// Fresh per-test cache directory; wiped up front so a previous failed run
/// cannot leak entries in.
std::string fresh_dir(const char* name) {
  const auto path =
      std::filesystem::temp_directory_path() / (std::string("bng_cache_") + name);
  std::filesystem::remove_all(path);
  return path.string();
}

/// Every file under a cache directory, sorted.
std::vector<std::filesystem::path> entry_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

SweepOptions options(std::uint32_t seeds, std::uint32_t jobs, RunCache* cache = nullptr) {
  SweepOptions opt;
  opt.seeds = seeds;
  opt.jobs = jobs;
  opt.cache = cache;
  return opt;
}

/// The three emitted artifacts, concatenated: if these match, every digest,
/// metric bit, and aggregate matched.
std::string artifacts(const SweepResult& r) {
  return to_json(r) + "\n--\n" + aggregate_csv(r) + "\n--\n" + seeds_csv(r);
}

TEST(RunCache, WarmRunsAreByteIdenticalAcrossJobCounts) {
  const Scenario s = cache_mini();
  RunCache cache(fresh_dir("warm"));

  // Cold at 4 threads: the thread executor's sink stores from all of them.
  const std::string cold = artifacts(run_sweep(s, options(2, 4, &cache)));
  RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.stores, 4u);
  EXPECT_EQ(c.write_failures, 0u);
  // One fsync per entry file, then the sweep-end sync of the directories,
  // which leaves nothing for another sync.
  EXPECT_GT(c.fsyncs, c.stores);
  cache.sync();
  EXPECT_EQ(cache.counters().fsyncs, c.fsyncs);
  EXPECT_EQ(entry_files(cache.dir()).size(), 4u);  // one file per entry, no more

  // Warm rerun at a different width: answered entirely from the cache, and
  // the artifacts stay byte-identical — a cache hit is indistinguishable
  // from a recomputation. Lookups never fsync.
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(2, 1, &cache))));
  const RunCache::Counters warm = cache.counters();
  EXPECT_EQ(warm.hits, 4u);
  EXPECT_EQ(warm.misses, 4u);
  EXPECT_EQ(warm.stale, 0u);
  EXPECT_EQ(warm.fsyncs, c.fsyncs);
}

TEST(RunCache, RoundTripsEveryRecordOfASweep) {
  // Every delivered record becomes one entry, and each entry reads back as
  // its job's record: same identity, seed and digest, byte for byte.
  const Scenario s = cache_mini();
  RunCache cache(fresh_dir("roundtrip"));
  const SweepResult result = run_sweep(s, options(3, 1, &cache));
  EXPECT_EQ(entry_files(cache.dir()).size(), 6u);  // 2 points x 3 seeds

  const std::vector<SweepPoint> points = expand(s);
  ASSERT_EQ(points.size(), 2u);
  for (std::uint32_t p = 0; p < points.size(); ++p) {
    for (std::uint32_t o = 0; o < 3; ++o) {
      const std::optional<RunRecord> rec = cache.lookup(s, points[p], p, o);
      ASSERT_TRUE(rec.has_value()) << p << "/" << o;
      const RunRecord& ran = result.points[p].seeds[o];
      EXPECT_EQ(rec->point, p);
      EXPECT_EQ(rec->ordinal, o);
      EXPECT_EQ(rec->seed, job_seed(7400, p, o));
      EXPECT_EQ(rec->digest, ran.digest);
      EXPECT_EQ(encode_record(*rec), encode_record(ran));
    }
  }
  EXPECT_EQ(cache.counters().hits, 6u);
}

TEST(RunCache, StatsCountHitsAsPrefilledRecordsAndReportFsyncCost) {
  const Scenario s = cache_mini();
  RunCache cache(fresh_dir("stats"));
  run_sweep(s, options(2, 1, &cache));

  obs::SweepTelemetry telemetry;
  SweepOptions warm = options(2, 1, &cache);
  warm.telemetry = &telemetry;
  run_sweep(s, warm);
  EXPECT_EQ(telemetry.records_done(), 4u);
  telemetry.cache_stats(cache.counters());
  const std::string json = telemetry.to_json(s.name, /*wall_s=*/1.0);
  EXPECT_NE(json.find("\"records_prefilled\": 4,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\": {\"hits\": 4, \"misses\": 4, \"stale\": 0, "
                      "\"stores\": 4, \"write_failures\": 0, \"fsyncs\": "),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fsync_max_ms\": "), std::string::npos) << json;
}

TEST(RunCache, ProcessPoolSharesTheCacheDirectory) {
  // Cold run under --procs 2: the dispatcher stores every record its worker
  // processes deliver. A second cache on the same directory (as a later
  // process would open it) then hits on every job of an in-process run and
  // reproduces the artifacts byte for byte.
  const Scenario s = cache_mini();
  const std::string dir = fresh_dir("procs");

  RunCache cold_cache(dir);
  SweepOptions cold = options(2, 0, &cold_cache);
  cold.procs = 2;
  const std::string procs = artifacts(run_sweep(s, cold));
  EXPECT_EQ(cold_cache.counters().stores, 4u);

  RunCache warm_cache(dir);
  EXPECT_EQ(procs, artifacts(run_sweep(s, options(2, 2, &warm_cache))));
  const RunCache::Counters c = warm_cache.counters();
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.misses, 0u);
}

TEST(RunCache, EditedScenarioSourceTurnsEntriesStale) {
  // Same resolved config at every point, different source text: the entry
  // files exist under the same (config digest, seed) keys but carry the old
  // scenario hash, so every lookup is stale and the jobs recompute (to the
  // same values — the configs really are identical).
  RunCache cache(fresh_dir("stale"));

  const SweepResult first = run_sweep(cache_mini(), options(2, 1, &cache));
  const Scenario edited = cache_mini("# edited comment, config unchanged\n");
  const SweepResult second = run_sweep(edited, options(2, 1, &cache));

  RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.stale, 4u);
  EXPECT_EQ(c.stores, 8u);
  EXPECT_EQ(seeds_csv(first), seeds_csv(second));

  // The stale entries were overwritten in place: the edited scenario now
  // hits, and the original — its entries overwritten — is stale in turn.
  run_sweep(edited, options(2, 1, &cache));
  c = cache.counters();
  EXPECT_EQ(c.hits, 4u);
}

TEST(RunCache, ANegativeMiningPowerFailsTheJobAndCachesNothing) {
  // adversary_share 1.5 leaves each of the 19 honest nodes (1 - 1.5) / 19 of
  // the power: the job must fail before it simulates, and store no record.
  const auto selfish = [](const std::string& share) {
    return load_scenario_string("name = overshare\n"
                                "seed_base = 7600\n"
                                "base.protocol = bitcoin\n"
                                "base.block_interval = 9\n"
                                "base.max_block_size = 4000\n"
                                "base.adversary = selfish\n"
                                "base.adversary_share = " + share + "\n",
                                "<test>", RunKnobs{20, 3});
  };
  RunCache cache(fresh_dir("overshare"));
  EXPECT_THROW(run_sweep(selfish("1.5"), options(1, 1, &cache)), std::invalid_argument);
  EXPECT_EQ(cache.counters().stores, 0u);
  EXPECT_TRUE(entry_files(cache.dir()).empty());
  // All of the power on the attacker is still a valid population.
  const SweepResult whole = run_sweep(selfish("1.0"), options(1, 1, &cache));
  ASSERT_EQ(whole.points.size(), 1u);
  EXPECT_EQ(whole.points[0].seeds.size(), 1u);
  EXPECT_EQ(cache.counters().stores, 1u);
}

TEST(RunCache, SourcelessScenariosBypassTheCache) {
  // A programmatic scenario (no ScenarioSource) has no shippable identity to
  // key on; the cache must stay untouched rather than guess.
  Scenario s;
  s.name = "no_source";
  s.seed_base = 7500;
  s.base.num_nodes = 12;
  s.base.target_blocks = 3;
  s.base.drain_time = 20;
  s.base.params = chain::Params::bitcoin();
  s.base.params.max_block_size = 4000;
  s.axes.push_back(Axis{
      "block_interval",
      {AxisValue{"9s", 9.0,
                 [](sim::ExperimentConfig& cfg) { cfg.params.block_interval = 9.0; }}}});

  RunCache cache(fresh_dir("nosrc"));
  run_sweep(s, options(2, 1, &cache));
  const RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses + c.stale + c.stores, 0u);
  EXPECT_TRUE(entry_files(cache.dir()).empty());
}

TEST(RunCache, ProgrammaticScenarioHasNoKeyAndStoresNothing) {
  // An inline scenario stripped of its source has no shippable identity:
  // no job has a key, a direct store writes nothing, and a sweep against
  // the cache runs every job fresh to the same artifacts as an uncached run.
  Scenario s = cache_mini();
  s.source.reset();
  const std::vector<SweepPoint> points = expand(s);
  for (std::uint32_t p = 0; p < points.size(); ++p)
    EXPECT_FALSE(job_cache_key(s, points[p], p, 0).has_value()) << p;

  RunCache cache(fresh_dir("prog"));
  const SweepResult cold = run_sweep(s, options(2, 1));
  cache.store(s, points[0], cold.points[0].seeds[0]);
  EXPECT_FALSE(cache.lookup(s, points[0], 0, 0).has_value());

  EXPECT_EQ(artifacts(cold), artifacts(run_sweep(s, options(2, 1, &cache))));
  const RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses + c.stale + c.stores + c.write_failures, 0u);
  EXPECT_TRUE(entry_files(cache.dir()).empty());
}

TEST(RunCache, TornEntriesAreStaleAndTheRerunRewritesThemBitIdentically) {
  // A damaged store: one entry loses its last 3 bytes, another is
  // overwritten with garbage. Neither may be served; the rerun recomputes
  // exactly those two jobs, byte-identically, and rewrites their entries.
  const Scenario s = cache_mini();
  const std::string dir = fresh_dir("torn");
  RunCache cache(dir);
  const std::string cold = artifacts(run_sweep(s, options(2, 1, &cache)));

  const std::vector<std::filesystem::path> entries = entry_files(dir);
  ASSERT_EQ(entries.size(), 4u);
  std::filesystem::resize_file(entries[0], std::filesystem::file_size(entries[0]) - 3);
  std::ofstream(entries[1], std::ios::binary | std::ios::trunc) << "not a cache entry";

  RunCache rerun(dir);
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(2, 1, &rerun))));
  const RunCache::Counters c = rerun.counters();
  EXPECT_EQ(c.stale, 2u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.stores, 2u);

  // The store healed: a third run is answered entirely from the cache.
  RunCache third(dir);
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(2, 1, &third))));
  EXPECT_EQ(third.counters().hits, 4u);
  EXPECT_EQ(third.counters().stale, 0u);
}

TEST(RunCache, InterruptedSweepResumesFromTheCacheBitIdentically) {
  // The cooperative-interrupt path (ngsim's SIGINT/SIGTERM handler raises
  // the same flag): the sweep stops between jobs, every delivered record is
  // already an entry, and rerunning against the same cache finishes the
  // rest byte-identically.
  Scenario s = cache_mini();
  const std::string serial = artifacts(run_sweep(s, options(3, 1)));

  auto runs = std::make_shared<std::atomic<std::uint32_t>>(0);
  s.extra = [runs](const sim::Experiment&, NamedValues&) {
    // Trip the flag after the 2nd job, exactly once (the rerun counts on
    // from where the counter already is, so it never re-trips).
    if (runs->fetch_add(1) + 1 == 2)
      sweep_interrupt_flag().store(true, std::memory_order_relaxed);
  };

  const std::string dir = fresh_dir("interrupt");
  RunCache cache(dir);
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);
  EXPECT_THROW(run_sweep(s, options(3, 1, &cache)), SweepInterrupted);
  sweep_interrupt_flag().store(false, std::memory_order_relaxed);

  const std::size_t on_disk = entry_files(dir).size();
  EXPECT_GE(on_disk, 2u);
  EXPECT_LT(on_disk, 6u);
  // Fewer stores than a sync batch: the directory fsyncs beyond the
  // per-entry ones were made by the sync on the unwind.
  const RunCache::Counters c = cache.counters();
  ASSERT_LT(c.stores, RunCache::kSyncBatch);
  EXPECT_GT(c.fsyncs, c.stores);

  RunCache rerun(dir);
  EXPECT_EQ(serial, artifacts(run_sweep(s, options(3, 1, &rerun))));
  EXPECT_GE(rerun.counters().hits, 2u);
}

TEST(RunCache, EntriesOfAForeignSweepNeverHit) {
  // A cache filled by one sweep answers nothing for a different scenario
  // text or a different --blocks, and their artifacts equal a cold run's.
  RunCache cache(fresh_dir("foreign"));
  run_sweep(cache_mini(), options(2, 1, &cache));

  const Scenario other_text = load_scenario_string(
      "name = foreign\nseed_base = 7400\nbase.protocol = ng\naxis.nodes = 12, 16\n",
      "<test>", RunKnobs{16, 3});
  const Scenario other_blocks = cache_mini({}, 4);
  for (const Scenario* other : {&other_text, &other_blocks}) {
    const std::string cold = artifacts(run_sweep(*other, options(2, 1)));
    EXPECT_EQ(cold, artifacts(run_sweep(*other, options(2, 1, &cache))));
    EXPECT_EQ(cache.counters().hits, 0u) << other->name;
  }
}

TEST(RunCache, MoreSeedsReuseTheSharedOrdinals) {
  // job_seed does not depend on the seed count, so --seeds 3 after
  // --seeds 2 hits exactly the 2 shared ordinals of each point.
  const Scenario s = cache_mini();
  RunCache cache(fresh_dir("seeds"));
  run_sweep(s, options(2, 1, &cache));
  const RunCache::Counters before = cache.counters();

  const std::string cold = artifacts(run_sweep(s, options(3, 1)));
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(3, 1, &cache))));
  const RunCache::Counters after = cache.counters();
  EXPECT_EQ(after.hits - before.hits, 4u);      // 2 points x ordinals 0, 1
  EXPECT_EQ(after.misses - before.misses, 2u);  // 2 points x ordinal 2
}

TEST(RunCache, WriteFailuresAreCountedAndTheSweepCompletes) {
  // A regular file where an entry's shard directory belongs makes those
  // stores fail (also when tests run as root). The sweep still completes
  // byte-identically; the failures are counted, and exactly those jobs miss
  // on the rerun.
  const Scenario s = cache_mini();
  const std::string dir = fresh_dir("unwritable");
  RunCache cache(dir);

  const std::vector<SweepPoint> points = expand(s);
  const auto shard_of = [&](std::uint32_t p, std::uint32_t o) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02llx",
                  static_cast<unsigned long long>(
                      job_cache_key(s, points[p], p, o)->config_digest >> 56));
    return std::string(hex);
  };
  const std::string blocked = shard_of(0, 0);
  std::ofstream(dir + "/" + blocked) << "in the way";
  std::uint64_t expected = 0;
  for (std::uint32_t p = 0; p < points.size(); ++p)
    for (std::uint32_t o = 0; o < 2; ++o) expected += shard_of(p, o) == blocked ? 1 : 0;
  ASSERT_GE(expected, 2u);

  const std::string cold = artifacts(run_sweep(s, options(2, 1)));
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(2, 1, &cache))));
  const RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.write_failures, expected);
  EXPECT_EQ(c.stores, 4u - expected);

  RunCache rerun(dir);
  EXPECT_EQ(cold, artifacts(run_sweep(s, options(2, 1, &rerun))));
  EXPECT_EQ(rerun.counters().misses, expected);
  EXPECT_EQ(rerun.counters().hits, 4u - expected);
}

}  // namespace
}  // namespace bng::runner
