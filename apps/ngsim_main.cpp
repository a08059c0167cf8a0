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
//   ngsim --scenario fig7 --hosts a:9700,b:9700 --cache fig7.cache
//
// A sweep killed mid-run resumes by rerunning the same command: every
// record it finished is in the --cache directory, so only the rest run.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "runner/adaptive.hpp"
#include "runner/cache.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace bng;

constexpr const char* kUsage = R"(ngsim — parallel multi-seed sweep runner

Usage: ngsim --scenario NAME [options]
       ngsim --scenario-file PATH [options]
       ngsim --serve PORT
       ngsim --list

Options:
  --scenario NAME       registered scenario to run (see --list)
  --scenario-file PATH  load a key=value scenario file instead
  --seeds N             seeds per sweep point                 (default 1)
  --jobs N              worker threads; 0 = all cores         (default 0)
  --procs N             local worker *processes* instead of threads
                        (default 0 = off); output is bit-identical to any
                        --jobs run
  --nodes N             emulated node count                   (default 1000)
  --blocks N            counted blocks per run                (default 60)
  --out DIR             write <scenario>.json / .csv here     (default .)
  --cache DIR           content-addressed record cache (see bench/README.md
                        "Adaptive sweeps & caching"): finished jobs are
                        answered from DIR instead of re-simulated, under any
                        of --jobs/--procs/--hosts. Every record is fsync'd
                        into DIR as it arrives, so to resume a killed or
                        interrupted sweep, rerun the same command.
  --dense               for refine-marked scenarios: evaluate every grid point
                        instead of bisecting (the oracle an adaptive run's
                        frontier artifacts are byte-compared against)
  --no-table            suppress the human-readable table
  --list                list registered scenarios and exit
  --help                this text

Observability (see bench/README.md "Observability"):
  --progress            render a [progress] line on stderr every ~500 ms
  --stats-json PATH     write an end-of-sweep telemetry report (records,
                        per-job simulate/metrics phase split, cache counters
                        and fsync cost, per-worker fleet stats) to PATH
  --trace CATS          record a decision trace to <out>/<scenario>_trace.jsonl;
                        CATS = comma list of blocks, adversary, events (or all).
                        In-process runs only (not --procs/--hosts); artifacts
                        stay byte-identical to an untraced run

Distributed mode (see bench/README.md):
  --serve PORT          run as a TCP fleet worker on PORT (0 = kernel pick)
  --hosts H:P,H:P,...   dispatch jobs to these --serve workers (overrides
                        --jobs/--procs; output stays bit-identical)

Worker liveness, for --procs and --hosts alike:
  --heartbeat-ms N          worker heartbeat interval, >= 1  (default 1000)
  --heartbeat-timeout-ms N  silence before a worker is dead,
                            > --heartbeat-ms                 (default 10000)
  --job-deadline-ms N       per-job hung-worker deadline     (default 0 = off)
  --straggler-after-ms N    speculative re-dispatch age      (default 0 = off)
  --connect-timeout-ms N    per-host TCP connect timeout     (default 5000)

Scenario files (see bench/README.md):
  name = my_sweep
  base.protocol = bitcoin          # bitcoin | ng | ghost
  base.block_interval = 10
  axis.max_block_size = 10000, 20000, 40000
)";

/// The usage text, then every key a scenario file's base.KEY and axis.KEY
/// lines accept.
void print_usage(std::FILE* out) {
  std::fputs(kUsage, out);
  std::fputs("\nKeys for base.KEY and axis.KEY lines:\n", out);
  std::string line;
  for (const std::string& key : runner::config_override_keys()) {
    if (!line.empty() && line.size() + 1 + key.size() > 76) {
      std::fprintf(out, "  %s\n", line.c_str());
      line.clear();
    }
    if (!line.empty()) line += ' ';
    line += key;
  }
  std::fprintf(out, "  %s\n", line.c_str());
}

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
/// quiesce, sync the record cache, and unwind with SweepInterrupted.
void on_interrupt(int) {
  bng::runner::sweep_interrupt_flag().store(true, std::memory_order_relaxed);
}

/// Exit code for an interrupted-but-resumable sweep (EX_TEMPFAIL: rerun the
/// same command and it completes).
constexpr int kExitInterrupted = 75;

/// argv as one shell command line, single-quoting arguments that need it.
std::string command_line(int argc, char** argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i > 0) out += ' ';
    if (!arg.empty() &&
        arg.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                              "0123456789-_./=:,+@%") == std::string_view::npos) {
      out += arg;
      continue;
    }
    out += '\'';
    for (const char c : arg) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    out += '\'';
  }
  return out;
}

/// One warning at sweep end when records could not be saved: a rerun
/// against the cache would simulate those jobs again.
void warn_write_failures(const runner::RunCache& cache) {
  const std::uint64_t failed = cache.counters().write_failures;
  if (failed > 0)
    std::fprintf(stderr,
                 "ngsim: warning: %llu cache writes or fsyncs in %s failed; a rerun "
                 "will simulate those jobs again\n",
                 static_cast<unsigned long long>(failed), cache.dir().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden worker mode (`--procs` children): speak the worker protocol on
  // the socketpair end the dispatcher passed as stdin.
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    if (argc > 2) {
      std::fprintf(stderr, "ngsim: unknown worker option '%s'\n", argv[2]);
      return 1;
    }
    return bng::runner::worker_session(STDIN_FILENO);
  }

  // TCP fleet worker mode: bind, announce the port, serve dispatchers until
  // killed. Survives dispatcher crashes by design (the rerun reconnects).
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) {
    std::uint32_t port = 0;
    if (argc < 3 || !parse_u32_arg("--serve", argv[2], port, 0) || port > 65535) {
      std::fprintf(stderr, "ngsim: --serve requires a port (0-65535)\n");
      return 1;
    }
    if (argc > 3) {
      std::fprintf(stderr, "ngsim: unknown worker option '%s'\n", argv[3]);
      return 1;
    }
    return bng::runner::serve_main(static_cast<std::uint16_t>(port));
  }

  std::string scenario_name;
  std::string scenario_file;
  std::string cache_dir;
  std::string stats_json_path;
  std::string out_dir = ".";
  bool print_table = true;
  bool dense = false;
  runner::RunKnobs knobs;
  runner::SweepOptions options;
  options.jobs = 0;  // --help's default: all cores

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout);
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
      cache_dir = next;
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
    std::fprintf(stderr, "ngsim: unknown option '%s'\n\n", arg);
    print_usage(stderr);
    return 1;
  }

  try {
    runner::check_liveness_tuning(options.fleet);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ngsim: %s\n", e.what());
    return 1;
  }

  if (options.trace_mask != 0 && (options.procs > 0 || !options.hosts.empty())) {
    std::fprintf(stderr,
                 "ngsim: --trace needs the in-process executor; drop --procs/--hosts\n");
    return 1;
  }

  if (scenario_name.empty() && scenario_file.empty()) {
    std::fprintf(stderr, "ngsim: one of --scenario / --scenario-file is required\n\n");
    print_usage(stderr);
    return 1;
  }

  std::optional<runner::Scenario> scenario;
  try {
    if (!scenario_file.empty()) {
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

  if (options.procs > 0) options.worker_argv = {self_exe_path(argv[0]), "--worker"};

  const auto trace_path = dir / (scenario->name + "_trace.jsonl");
  if (options.trace_mask != 0) options.trace_path = trace_path.string();

  // Telemetry backs both --progress and --stats-json; a sweep with neither
  // pays nothing (run_sweep sees a null pointer).
  bng::obs::SweepTelemetry telemetry;
  if (!stats_json_path.empty() || options.progress) options.telemetry = &telemetry;

  // A cached sweep turns SIGINT/SIGTERM into a graceful stop: the executor
  // quiesces, the cache syncs, and the exit code + hint say how to pick the
  // sweep back up. Uncached sweeps keep the default die-immediately
  // behavior — there is nothing to save.
  std::optional<runner::RunCache> cache;
  if (!cache_dir.empty()) {
    try {
      cache.emplace(cache_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ngsim: %s\n", e.what());
      return 1;
    }
    options.cache = &*cache;
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
    if (cache) {
      warn_write_failures(*cache);
      telemetry.cache_stats(cache->counters());
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
    // Only a cached sweep installs the handler, so the cache is set here.
    warn_write_failures(*cache);
    std::fprintf(stderr,
                 "ngsim: sweep interrupted; completed records are safe in %s\n"
                 "ngsim: resume by rerunning: %s\n",
                 cache->dir().c_str(), command_line(argc, argv).c_str());
    return kExitInterrupted;
  } catch (const std::exception& e) {
    if (cache) warn_write_failures(*cache);
    std::fprintf(stderr, "ngsim: sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
