// ngsim — sweep orchestration CLI.
//
// Runs a registered (or file-loaded) sweep scenario across a worker pool,
// prints the figure table, and writes aggregate JSON + CSV in the
// BENCH_core.json spirit: one self-describing machine-readable artifact per
// sweep. Per-seed digests, metrics, and aggregates (and hence the CSVs) are
// bit-identical regardless of --jobs; the JSON additionally records the
// run's jobs count and wall time.
//
//   ngsim --list
//   ngsim --scenario fig7 --seeds 4 --jobs 4 --out results/
//   ngsim --scenario-file my_sweep.scn --seeds 8
//   ngsim --serve 9700                      # worker half of a TCP fleet
//   ngsim --scenario fig7 --hosts a:9700,b:9700 --journal fig7.journal
//   ngsim --resume fig7.journal --hosts a:9700,b:9700
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>

#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "runner/adaptive.hpp"
#include "runner/cache.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/journal.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "runner/tcp_fleet.hpp"

namespace {

using namespace bng;

constexpr const char* kUsage = R"(ngsim — parallel multi-seed sweep runner

Usage: ngsim --scenario NAME [options]
       ngsim --scenario-file PATH [options]
       ngsim --serve PORT [--cache DIR]
       ngsim --resume JOURNAL [options]
       ngsim --list

Options:
  --scenario NAME       registered scenario to run (see --list)
  --scenario-file PATH  load a key=value scenario file instead
  --seeds N             seeds per sweep point                 (default 1)
  --jobs N              worker threads; 0 = all cores         (default 0)
  --procs N             worker *processes* instead of threads (default 0 = off)
                        output is bit-identical to any --jobs run
  --shards N            shard each run across N event-loop threads
                        (parallel-in-time; digests stay bit-identical for any
                        N; in-process runs only — --procs/--hosts workers
                        re-expand from the scenario text and ignore it)
  --nodes N             emulated node count                   (default 1000)
  --blocks N            counted blocks per run                (default 60)
  --out DIR             write <scenario>.json / .csv here     (default .)
  --cache DIR           content-addressed record cache (see bench/README.md
                        "Adaptive sweeps & caching"): finished jobs are
                        answered from DIR instead of re-simulated; shared by
                        --jobs/--procs/--hosts runs and safe across processes.
                        Journal --resume records take precedence.
  --dense               for refine-marked scenarios: evaluate every grid point
                        instead of bisecting (the oracle an adaptive run's
                        frontier artifacts are byte-compared against)
  --no-table            suppress the human-readable table
  --list                list registered scenarios and exit
  --help                this text

Observability (see bench/README.md "Observability"):
  --progress            render a [progress] line on stderr every ~500 ms
  --stats-json PATH     write an end-of-sweep telemetry report (records,
                        per-job simulate/metrics phase split, journal fsync
                        lag, per-worker fleet stats) to PATH
  --trace CATS          record a decision trace to <out>/<scenario>_trace.jsonl;
                        CATS = comma list of blocks, adversary, events (or all).
                        In-process runs only (not --procs/--hosts); artifacts
                        stay byte-identical to an untraced run

Distributed mode (see bench/README.md):
  --serve PORT          run as a TCP fleet worker on PORT (0 = kernel pick)
  --hosts H:P,H:P,...   dispatch jobs to these --serve workers (overrides
                        --jobs/--procs; output stays bit-identical)
  --journal PATH        append completed records to a crash-safe journal
  --resume PATH         continue the sweep journaled at PATH: scenario, scale
                        and seeds are rebuilt from the journal, finished
                        slots are kept, only the holes run
  --heartbeat-ms N          worker heartbeat interval        (default 1000)
  --heartbeat-timeout-ms N  silence before a worker is dead  (default 10000)
  --job-deadline-ms N       per-job hung-worker deadline     (default 0 = off)
  --straggler-after-ms N    speculative re-dispatch age      (default 0 = off)
  --connect-timeout-ms N    per-host TCP connect timeout     (default 5000)

Environment fallbacks: REPRO_NODES, REPRO_BLOCKS, REPRO_SEEDS, REPRO_JOBS,
REPRO_PROCS.

Scenario files (see bench/README.md):
  name = my_sweep
  base.protocol = bitcoin          # bitcoin | ng | ghost
  base.block_interval = 10
  axis.max_block_size = 10000, 20000, 40000
)";

void list_scenarios() {
  std::printf("registered scenarios:\n");
  for (const auto& [name, description] : runner::list_scenarios())
    std::printf("  %-24s %s\n", name.c_str(), description.c_str());
}

bool parse_u32_arg(const char* flag, const char* value, std::uint32_t& out,
                   std::uint32_t min_value) {
  if (value == nullptr) {
    std::fprintf(stderr, "ngsim: %s requires a value\n", flag);
    return false;
  }
  char* end = nullptr;
  unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || parsed < min_value || parsed > UINT32_MAX) {
    std::fprintf(stderr, "ngsim: bad value '%s' for %s\n", value, flag);
    return false;
  }
  out = static_cast<std::uint32_t>(parsed);
  return true;
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ngsim: cannot write %s\n", path.string().c_str());
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "ngsim: write to %s failed\n", path.string().c_str());
    return false;
  }
  return true;
}

/// The running binary's path, for exec'ing worker processes.
std::string self_exe_path(const char* argv0) {
  std::error_code ec;
  auto p = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return p.string();
  return argv0;
}

/// Async-signal-safe: raise the cooperative flag; the dispatch loops notice,
/// quiesce, flush the journal, and unwind with SweepInterrupted.
void on_interrupt(int) {
  bng::runner::sweep_interrupt_flag().store(true, std::memory_order_relaxed);
}

/// Exit code for an interrupted-but-resumable sweep (EX_TEMPFAIL: rerun
/// with --resume and it completes).
constexpr int kExitInterrupted = 75;

/// `--cache DIR` for the worker entry points: opens the directory and
/// returns the cache, or nullptr when the args carry none. Sets `ok` false
/// (with a message) on a malformed tail or an unopenable directory.
std::unique_ptr<runner::RunCache> worker_cache_from_args(int argc, char** argv,
                                                         int first, bool& ok) {
  std::unique_ptr<runner::RunCache> cache;
  ok = true;
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      try {
        cache = std::make_unique<runner::RunCache>(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ngsim: %s\n", e.what());
        ok = false;
        return nullptr;
      }
      continue;
    }
    std::fprintf(stderr, "ngsim: unknown worker option '%s'\n", argv[i]);
    ok = false;
    return nullptr;
  }
  return cache;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden worker mode: speak the record protocol on stdin/stdout and never
  // touch the CLI surface (a stray printf would corrupt the framing).
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    bool ok = false;
    const auto cache = worker_cache_from_args(argc, argv, 2, ok);
    if (!ok) return 1;
    bng::runner::ActiveCacheScope cache_scope(cache.get());
    return bng::runner::worker_main(0, 1);
  }

  // TCP fleet worker mode: bind, announce the port, serve dispatchers until
  // killed. Survives dispatcher crashes by design (--resume reconnects).
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) {
    std::uint32_t port = 0;
    if (argc < 3 || !parse_u32_arg("--serve", argv[2], port, 0) || port > 65535) {
      std::fprintf(stderr, "ngsim: --serve requires a port (0-65535)\n");
      return 1;
    }
    bool ok = false;
    const auto cache = worker_cache_from_args(argc, argv, 3, ok);
    if (!ok) return 1;
    bng::runner::ActiveCacheScope cache_scope(cache.get());
    return bng::runner::serve_main(static_cast<std::uint16_t>(port));
  }

  std::string scenario_name;
  std::string scenario_file;
  std::string resume_path;
  std::string stats_json_path;
  std::string out_dir = ".";
  bool print_table = true;
  bool dense = false;
  runner::RunKnobs knobs{runner::env_u32("REPRO_NODES", 1000),
                         runner::env_u32("REPRO_BLOCKS", 60)};
  runner::SweepOptions options;
  std::uint32_t cli_shards = 0;  // 0 = leave the scenario's own setting
  options.seeds = runner::env_u32("REPRO_SEEDS", 1);
  options.jobs = runner::env_u32("REPRO_JOBS", 0);
  options.procs = runner::env_u32("REPRO_PROCS", 0);

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (std::strcmp(arg, "--list") == 0) {
      list_scenarios();
      return 0;
    }
    if (std::strcmp(arg, "--no-table") == 0) {
      print_table = false;
      continue;
    }
    if (std::strcmp(arg, "--scenario") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --scenario requires a name\n");
        return 1;
      }
      scenario_name = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--scenario-file") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --scenario-file requires a path\n");
        return 1;
      }
      scenario_file = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--out") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --out requires a directory\n");
        return 1;
      }
      out_dir = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--cache") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --cache requires a directory\n");
        return 1;
      }
      options.cache_dir = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--dense") == 0) {
      dense = true;
      continue;
    }
    if (std::strcmp(arg, "--seeds") == 0) {
      if (!parse_u32_arg(arg, next, options.seeds, 1)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--jobs") == 0) {
      if (!parse_u32_arg(arg, next, options.jobs, 0)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--procs") == 0) {
      if (!parse_u32_arg(arg, next, options.procs, 0)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--shards") == 0) {
      if (!parse_u32_arg(arg, next, cli_shards, 1)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--nodes") == 0) {
      if (!parse_u32_arg(arg, next, knobs.nodes, 2)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--blocks") == 0) {
      if (!parse_u32_arg(arg, next, knobs.blocks, 1)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--hosts") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --hosts requires host:port[,host:port...]\n");
        return 1;
      }
      std::string list = next;
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) options.hosts.push_back(list.substr(pos, end - pos));
        pos = end + 1;
      }
      if (options.hosts.empty()) {
        std::fprintf(stderr, "ngsim: --hosts got no endpoints\n");
        return 1;
      }
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--journal") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --journal requires a path\n");
        return 1;
      }
      options.journal_path = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--resume") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --resume requires a journal path\n");
        return 1;
      }
      resume_path = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--heartbeat-ms") == 0) {
      if (!parse_u32_arg(arg, next, options.fleet.heartbeat_ms, 0)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--heartbeat-timeout-ms") == 0) {
      if (!parse_u32_arg(arg, next, options.fleet.heartbeat_timeout_ms, 1)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--job-deadline-ms") == 0) {
      if (!parse_u32_arg(arg, next, options.fleet.job_deadline_ms, 0)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--straggler-after-ms") == 0) {
      if (!parse_u32_arg(arg, next, options.fleet.straggler_after_ms, 0)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--connect-timeout-ms") == 0) {
      if (!parse_u32_arg(arg, next, options.fleet.connect_timeout_ms, 1)) return 1;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--progress") == 0) {
      options.progress = true;
      continue;
    }
    if (std::strcmp(arg, "--stats-json") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr, "ngsim: --stats-json requires a path\n");
        return 1;
      }
      stats_json_path = next;
      ++i;
      continue;
    }
    if (std::strcmp(arg, "--trace") == 0) {
      if (next == nullptr) {
        std::fprintf(stderr,
                     "ngsim: --trace requires categories (blocks,adversary,events)\n");
        return 1;
      }
      try {
        options.trace_mask = bng::obs::parse_trace_mask(next);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ngsim: %s\n", e.what());
        return 1;
      }
      ++i;
      continue;
    }
    std::fprintf(stderr, "ngsim: unknown option '%s'\n\n%s", arg, kUsage);
    return 1;
  }

  if (options.trace_mask != 0 && (options.procs > 0 || !options.hosts.empty())) {
    std::fprintf(stderr,
                 "ngsim: --trace needs the in-process executor; drop --procs/--hosts\n");
    return 1;
  }

  // --resume rebuilds the whole sweep identity (scenario, scale, seeds) from
  // the journal header; explicit flags may only confirm it, never change it
  // — run_sweep separately re-verifies the full identity before appending.
  std::string resume_inline_text;
  std::optional<runner::JournalHeader> resume_header;
  if (!resume_path.empty()) {
    if (!options.journal_path.empty() && options.journal_path != resume_path) {
      std::fprintf(stderr, "ngsim: --journal conflicts with --resume\n");
      return 1;
    }
    try {
      resume_header = runner::read_journal_header(resume_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ngsim: %s\n", e.what());
      return 1;
    }
    const runner::JournalHeader& header = *resume_header;
    const bool builtin = header.source_kind ==
                         static_cast<std::uint8_t>(runner::ScenarioSource::Kind::kBuiltin);
    if (builtin) {
      if (!scenario_name.empty() && scenario_name != header.ref) {
        std::fprintf(stderr,
                     "ngsim: --resume journal is for scenario '%s', not '%s'\n",
                     header.ref.c_str(), scenario_name.c_str());
        return 1;
      }
      if (!scenario_file.empty()) {
        std::fprintf(stderr,
                     "ngsim: --resume journal records a registered scenario; drop "
                     "--scenario-file\n");
        return 1;
      }
      scenario_name = header.ref;
    } else {
      if (!scenario_name.empty() || !scenario_file.empty()) {
        std::fprintf(stderr,
                     "ngsim: --resume journal carries its own scenario text; drop "
                     "--scenario/--scenario-file\n");
        return 1;
      }
      resume_inline_text = header.ref;
    }
    knobs = header.knobs;
    options.seeds = header.seeds;
    options.journal_path = resume_path;
    options.resume = true;
  }

  if (scenario_name.empty() && scenario_file.empty() && resume_inline_text.empty()) {
    std::fprintf(stderr, "ngsim: one of --scenario / --scenario-file is required\n\n%s",
                 kUsage);
    return 1;
  }

  std::optional<runner::Scenario> scenario;
  try {
    if (!resume_inline_text.empty()) {
      scenario = runner::load_scenario_string(resume_inline_text,
                                              "<journal " + resume_path + ">", knobs);
    } else if (!scenario_file.empty()) {
      scenario = runner::load_scenario_file(scenario_file, knobs);
      if (!scenario_name.empty() && scenario->name != scenario_name) {
        std::fprintf(stderr, "ngsim: scenario file defines '%s', not '%s'\n",
                     scenario->name.c_str(), scenario_name.c_str());
        return 1;
      }
    } else {
      scenario = runner::make_scenario(scenario_name, knobs);
      if (!scenario) {
        std::fprintf(stderr, "ngsim: unknown scenario '%s'\n\n", scenario_name.c_str());
        list_scenarios();
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsim: %s\n", e.what());
    return 1;
  }

  // Applied to the base before expansion so every sweep point inherits it.
  // Purely a wall-clock knob: records are bit-identical for any value.
  if (cli_shards > 0) scenario->base.shards = cli_shards;

  // A mismatched --resume must fail with the identity reason, and it must do
  // so before the output-path probing below: the journal belonging to a
  // different sweep is the user's actual mistake, not whatever --out happens
  // to be. run_sweep/run_adaptive re-verify the full identity before
  // appending, so this early check can only reject, never admit.
  if (resume_header) {
    const std::size_t n_points = runner::expand(*scenario).size();
    const runner::JournalHeader expected = runner::make_journal_header(
        *scenario, std::max(options.seeds, 1u), n_points);
    if (const std::string why = runner::journal_mismatch(*resume_header, expected);
        !why.empty()) {
      std::fprintf(stderr,
                   "ngsim: --resume: journal %s does not belong to this sweep: %s\n",
                   resume_path.c_str(), why.c_str());
      return 1;
    }
  }

  // Validate the output targets BEFORE dispatching any job: an unwritable
  // --out must fail in milliseconds, not after the sweep. The probe opens
  // in append mode so existing artifacts from an earlier run survive intact
  // if this run later fails.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ngsim: cannot create --out directory %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::filesystem::path dir(out_dir);
  const auto json_path = dir / (scenario->name + ".json");
  const auto agg_path = dir / (scenario->name + "_aggregate.csv");
  const auto seeds_path = dir / (scenario->name + "_seeds.csv");
  for (const auto& path : {json_path, agg_path, seeds_path}) {
    const bool existed = std::filesystem::exists(path, ec);
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "ngsim: cannot write %s\n", path.string().c_str());
      return 1;
    }
    probe.close();
    // The probe's job is done once the open succeeded: don't leave a
    // zero-byte artifact behind if this run later fails.
    if (!existed) std::filesystem::remove(path, ec);
  }

  if (options.procs > 0) {
    options.worker_argv = {self_exe_path(argv[0]), "--worker"};
    if (!options.cache_dir.empty()) {
      // Worker processes open the same directory themselves; entries are
      // shared through the filesystem (write-to-temp + rename keeps
      // concurrent writers safe).
      options.worker_argv.push_back("--cache");
      options.worker_argv.push_back(options.cache_dir);
    }
  }

  const auto trace_path = dir / (scenario->name + "_trace.jsonl");
  if (options.trace_mask != 0) options.trace_path = trace_path.string();

  // Telemetry backs both --progress and --stats-json; a sweep with neither
  // pays nothing (run_sweep sees a null pointer).
  bng::obs::SweepTelemetry telemetry;
  if (!stats_json_path.empty() || options.progress) options.telemetry = &telemetry;

  // A journaled sweep turns SIGINT/SIGTERM into a graceful stop: the
  // executor quiesces, the journal flushes, and the exit code + hint say how
  // to pick the sweep back up. Unjournaled sweeps keep the default
  // die-immediately behavior — there is nothing to save.
  if (!options.journal_path.empty()) {
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);
  }

  if (dense && !scenario->refine.has_value()) {
    std::fprintf(stderr,
                 "ngsim: --dense only applies to scenarios with a refine axis\n");
    return 1;
  }

  try {
    // Refine-marked scenarios go through the adaptive driver: coarse pass +
    // bisection (or every point under --dense), plus the crossover-surface
    // artifacts. Everything else is a plain dense sweep.
    runner::SweepResult result;
    std::filesystem::path frontier_json_path;
    std::filesystem::path frontier_csv_path;
    bool wrote_frontier = false;
    if (scenario->refine.has_value()) {
      runner::AdaptiveOptions aopt;
      aopt.sweep = options;
      aopt.dense = dense;
      runner::AdaptiveResult adaptive = runner::run_adaptive(*scenario, aopt);
      frontier_json_path = dir / (scenario->name + "_frontier.json");
      frontier_csv_path = dir / (scenario->name + "_frontier.csv");
      if (!write_file(frontier_json_path, runner::frontier_json(*scenario, adaptive)) ||
          !write_file(frontier_csv_path, runner::frontier_csv(adaptive)))
        return 1;
      wrote_frontier = true;
      result = std::move(adaptive.sweep);
    } else {
      result = runner::run_sweep(*scenario, options);
    }
    if (print_table) {
      // Report the scenario's effective base scale, not the requested knobs:
      // scenarios may clamp or fix their size (smoke, the attack ablations).
      std::printf("== %s ==\n%s\nnodes=%u blocks=%u\n\n", result.scenario.c_str(),
                  result.description.c_str(), scenario->base.num_nodes,
                  scenario->base.target_blocks);
      runner::print_table(result);
    }

    if (!write_file(json_path, runner::to_json(result)) ||
        !write_file(agg_path, runner::aggregate_csv(result)) ||
        !write_file(seeds_path, runner::seeds_csv(result)))
      return 1;
    std::printf("\nwrote %s, %s, %s\n", json_path.string().c_str(),
                agg_path.string().c_str(), seeds_path.string().c_str());
    if (wrote_frontier)
      std::printf("wrote %s, %s\n", frontier_json_path.string().c_str(),
                  frontier_csv_path.string().c_str());
    if (options.trace_mask != 0)
      std::printf("wrote %s\n", trace_path.string().c_str());
    if (!stats_json_path.empty()) {
      if (!write_file(stats_json_path,
                      telemetry.to_json(result.scenario, result.wall_s)))
        return 1;
      std::printf("wrote %s\n", stats_json_path.c_str());
    }
  } catch (const runner::SweepInterrupted&) {
    if (!options.journal_path.empty()) {
      std::fprintf(stderr,
                   "ngsim: sweep interrupted; completed records are safe in %s\n"
                   "ngsim: resume with: ngsim --resume %s\n",
                   options.journal_path.c_str(), options.journal_path.c_str());
    } else {
      std::fprintf(stderr, "ngsim: sweep interrupted\n");
    }
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsim: sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
