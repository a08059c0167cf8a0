// Declarative sweep scenarios: the experiment *description*, separated from
// the execution engine (runner/sweep.hpp) that runs it.
//
// A Scenario is a base ExperimentConfig plus sweep axes; each axis is a
// vector of named config deltas, and the cartesian product of the axes is
// the sweep grid. The paper's figures (§7-§8) are registered as built-in
// scenarios; ad-hoc sweeps load from a key=value scenario file.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/aggregate.hpp"
#include "sim/experiment.hpp"

namespace bng::runner {

/// Paper §7 workload constants of the built-in scenarios: operational
/// Bitcoin payload = 1 MB / 600 s, carried by identical-size transactions
/// (~3.5 tx/s at that rate).
inline constexpr double kPayloadBytesPerSecond = 1'000'000.0 / 600.0;
inline constexpr std::size_t kTxSize = 476;

/// Scale knobs threaded into scenario factories so one registration covers
/// paper scale and CI smoke scale (ngsim's --nodes / --blocks).
struct RunKnobs {
  std::uint32_t nodes = 1000;
  std::uint32_t blocks = 60;
};

/// A config override applied on top of the scenario base (or earlier axes).
using ConfigDelta = std::function<void(sim::ExperimentConfig&)>;

/// One value along a sweep axis. `x` is the numeric position for fits and
/// plots (0 when the axis is categorical, e.g. a protocol choice).
struct AxisValue {
  std::string label;
  double x = 0;
  ConfigDelta apply;
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// Per-seed hooks. `run` replaces the default Experiment::run() for
/// experiments that drive the clock manually (e.g. the power-drop ablation);
/// `extra` extracts additional per-seed metrics after the run. Both may
/// append to the NamedValues record, which the engine aggregates alongside
/// the standard metrics. Hooks must be callable concurrently.
using RunHook = std::function<void(sim::Experiment&, NamedValues&)>;
using ExtraHook = std::function<void(const sim::Experiment&, NamedValues&)>;

/// How a Scenario can be reconstructed in another process: the registered
/// name (plus the knobs it was instantiated with), or the full scenario-file
/// text. This is the canonical serialized form an ExperimentConfig crosses a
/// process boundary in — scenario identity + the key=value override grammar,
/// not a struct dump — so hooks (run/extra lambdas) survive the trip by
/// being re-instantiated on the far side.
struct ScenarioSource {
  enum class Kind : std::uint8_t {
    kBuiltin,  ///< `ref` is a registered scenario name
    kInline,   ///< `ref` is scenario-file text (load_scenario_string grammar)
  };
  Kind kind = Kind::kBuiltin;
  std::string ref;
  RunKnobs knobs;
};

/// Marks one axis for adaptive refinement (runner/adaptive.hpp): instead of
/// evaluating the axis densely, the driver runs a coarse pass and bisects
/// each sign change of `metric - threshold` down the axis until adjacent
/// grid indices (or an x-gap <= tolerance) bracket the crossover. Refined
/// points keep their dense-grid index, so job_seed() — and therefore every
/// record — is bit-identical to the same point in a dense sweep.
struct RefineSpec {
  std::string axis;       ///< name of the axis to refine (must exist)
  std::string metric;     ///< record value the predicate reads (seed-mean)
  double threshold = 0;   ///< predicate: mean(metric) > threshold
  std::uint32_t coarse = 5;  ///< coarse-pass points per group (min 2)
  double tolerance = 0;   ///< stop when the bracket's x-gap <= this (0: refine
                          ///< to adjacent grid indices)
};

struct Scenario {
  std::string name;
  std::string description;
  sim::ExperimentConfig base;
  std::vector<Axis> axes;
  /// Job seed = seed_base + point_index * 1'000'000 + seed_ordinal.
  std::uint64_t seed_base = 9000;
  RunHook run;
  ExtraHook extra;
  /// Set: ngsim runs this scenario through the adaptive frontier driver by
  /// default (--dense forces the full grid).
  std::optional<RefineSpec> refine;
  /// Set by make_scenario / the scenario-file loaders; required for
  /// process-pool execution (workers rebuild the scenario from it).
  std::optional<ScenarioSource> source;
};

/// A materialized cell of the sweep grid: base + one delta per axis.
struct SweepPoint {
  std::vector<std::string> labels;  ///< one per axis, in axis order
  double x = 0;                     ///< numeric position of the last axis value
  sim::ExperimentConfig config;     ///< seed is set by the engine per job
};

/// Cartesian product of the axes (a single point if there are none).
std::vector<SweepPoint> expand(const Scenario& s);

// --- Registry ---------------------------------------------------------------

using ScenarioFactory = std::function<Scenario(const RunKnobs&)>;

void register_scenario(std::string name, std::string description, ScenarioFactory factory);

/// Instantiate a registered scenario; nullopt if the name is unknown.
std::optional<Scenario> make_scenario(const std::string& name, const RunKnobs& knobs);

/// (name, description) of every registered scenario, sorted by name.
std::vector<std::pair<std::string, std::string>> list_scenarios();

// --- Declarative overrides / scenario files ---------------------------------

/// Apply one `key=value` override to a config (e.g. "block_interval", "10").
/// Throws std::invalid_argument on an unknown key or unparsable value.
void apply_config_override(sim::ExperimentConfig& cfg, std::string_view key,
                           std::string_view value);

/// The keys apply_config_override understands (for --help / error messages).
std::vector<std::string> config_override_keys();

/// Load a scenario from a simple key=value file:
///
///   name        = my_sweep
///   description = what this measures
///   seed_base   = 12000
///   base.protocol       = bitcoin        # bitcoin | ng | ghost
///   base.block_interval = 10
///   axis.max_block_size = 10000, 20000, 40000
///   refine.axis         = max_block_size # adaptive driver (optional)
///   refine.metric       = relative_gain
///   refine.threshold    = 0
///   refine.coarse       = 5
///   refine.tolerance    = 0
///
/// `#` starts a comment; blank lines are ignored. Each `axis.<key>` line
/// adds one sweep axis (file order). The `refine.*` keys mark one axis for
/// the adaptive frontier driver (see RefineSpec); `refine.axis` must name an
/// axis defined in the file. Throws std::runtime_error on I/O or parse
/// errors.
Scenario load_scenario_file(const std::string& path, const RunKnobs& knobs);

/// Parse scenario text in the load_scenario_file grammar. `origin` labels
/// parse errors (a path, or "<inline>" for text shipped to a worker).
Scenario load_scenario_string(const std::string& text, const std::string& origin,
                              const RunKnobs& knobs);

}  // namespace bng::runner
