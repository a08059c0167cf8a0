// RunRecord: the self-contained result of one (sweep point × seed) job.
//
// Everything downstream of a job — aggregation, emitters, the CLI artifacts
// — consumes these records, and nothing else. A record is a pure function of
// (scenario, point index, seed ordinal), carries its own identity, and has a
// byte-stable serialized form (runner/record_codec.hpp), so the dispatch
// substrate is pluggable: the in-process thread pool and the fleet's local
// and remote worker processes produce bit-identical streams.
#pragma once

#include <cstdint>
#include <optional>

#include "metrics/metrics.hpp"
#include "runner/aggregate.hpp"

namespace bng::sim {
class Experiment;
}

namespace bng::runner {

struct RunRecord {
  std::uint32_t point = 0;    ///< index into the expanded sweep grid
  std::uint32_t ordinal = 0;  ///< seed ordinal within the point
  std::uint64_t seed = 0;     ///< the RNG seed the job actually ran with
  std::uint64_t digest = 0;   ///< FNV-1a determinism digest (runner/digest.hpp)
  /// Standard metrics followed by scenario-hook extras (schema order is the
  /// emit order; aggregation requires uniform schemas within a point).
  NamedValues values;
  /// Present when the config declared an adversary: the §2 revenue/fairness
  /// accounting for that node.
  std::optional<metrics::AttackerReport> attacker;
};

/// The engine's per-job seeding rule (kept in one place so every executor —
/// threads, worker processes — derives identical seeds).
[[nodiscard]] constexpr std::uint64_t job_seed(std::uint64_t seed_base,
                                               std::uint64_t point_index,
                                               std::uint32_t ordinal) {
  return seed_base + point_index * 1'000'000 + ordinal;
}

/// Flatten a finished experiment's metrics report into the record value
/// schema (metrics::to_named_values over compute_metrics).
NamedValues standard_metric_values(const sim::Experiment& exp);

/// Extract the full record from a finished experiment: identity, the
/// determinism digest over (generated blocks, pow count, `values`), and the
/// attacker report when an adversary was configured. `values` must already
/// hold the complete metric set (standard + hooks) — the digest covers it.
RunRecord extract_record(const sim::Experiment& exp, NamedValues values,
                         std::uint32_t point, std::uint32_t ordinal);

}  // namespace bng::runner
