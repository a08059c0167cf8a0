// Adaptive frontier sweeps: coarse-pass + deterministic bisection along one
// refine-marked axis, instead of evaluating the full dense grid.
//
// The paper's adversary results are crossover *surfaces* — e.g. the alpha at
// which selfish mining turns profitable, per (gamma, protocol) — and most of
// a dense alpha grid only confirms what a bisection would infer. The driver
// groups the expanded grid by every non-refine axis position, evaluates a
// coarse subset of each group's refine column, then repeatedly bisects every
// bracket where the predicate mean(metric) > threshold changes sign, until
// brackets are adjacent grid indices (or within the configured x tolerance).
//
// Determinism: refined points keep their *dense-grid* index — each wave is an
// ExecutionPlan over the full grid with everything except the wave marked
// done — so job_seed() and therefore every record is bit-identical to the
// same point of a dense sweep, and the frontier artifacts are pure functions
// of the records. With a record cache (runner/cache.hpp), each wave's jobs
// are looked up before dispatch and each delivered record is stored, as in
// run_sweep — which makes re-refinement, a dense oracle after an adaptive
// run, and rerunning a killed sweep near-free.
//
// The inferred frontier equals the dense grid's when the predicate crosses
// once per group (monotone surfaces — true for SM1 profitability); a
// non-monotone surface can hide extra crossings inside coarse segments the
// bisection never opens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace bng::runner {

struct AdaptiveOptions {
  SweepOptions sweep;
  /// Evaluate every grid point (one wave) instead of refining. The frontier
  /// artifacts use the same scan either way, so a dense run is the oracle an
  /// adaptive run is byte-compared against.
  bool dense = false;
};

/// One frontier bracket: the tightest evaluated pair of refine-axis values
/// where the predicate changes sign, per group of non-refine axis values.
struct FrontierRow {
  std::string group;  ///< joined non-refine labels ("-" when none)
  bool found = false; ///< false: predicate never changes sign in this group
  double lo_x = 0;
  double hi_x = 0;
  double crossover_x = 0;  ///< linear interpolation of metric across the bracket
  double lo_value = 0;     ///< mean(metric) at lo_x
  double hi_value = 0;     ///< mean(metric) at hi_x
};

struct AdaptiveResult {
  /// Evaluated points only (ascending dense-grid order), with per-point
  /// aggregates — the shape run_sweep would return for the evaluated subset.
  SweepResult sweep;
  /// Dense-grid indices of the evaluated points (parallel to sweep.points).
  std::vector<std::uint32_t> evaluated;
  std::size_t dense_points = 0;
  std::size_t dense_jobs = 0;
  /// Jobs the waves asked for: those handed to an executor plus those the
  /// record cache answered before dispatch.
  std::size_t jobs_dispatched = 0;
  std::vector<FrontierRow> frontier;
};

/// Run the scenario adaptively (requires scenario.refine). Throws on a
/// missing/unknown refine axis, a metric the records do not carry, or any
/// executor failure; SweepInterrupted propagates with the cache synced.
AdaptiveResult run_adaptive(const Scenario& scenario, const AdaptiveOptions& options);

/// Crossover-surface artifacts. Pure functions of the evaluated records —
/// no dispatch counts, no wall time — so an adaptive run and a dense run
/// that agree on the evaluated frontier emit byte-identical files.
std::string frontier_json(const Scenario& scenario, const AdaptiveResult& result);
std::string frontier_csv(const AdaptiveResult& result);

}  // namespace bng::runner
