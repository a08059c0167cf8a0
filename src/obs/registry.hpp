// Typed metric registry (ROADMAP item 5, in the spirit of SNIPPETS.md's
// bptree MetricSet): counters, gauges, and fixed-bucket histograms are
// registered once by name with a unit and description, mutated lock-free on
// the hot path (one registry per experiment; the sim loop is
// single-threaded), and snapshotted uniformly into the (name, value) pairs a
// RunRecord carries.
//
// The snapshot is the schema: values come out in registration order with
// stable names, so a scenario or tier that registers a new metric changes
// nothing in the record codec, the aggregator, or the emitters — they all
// consume NamedValues. Histograms expand into one value per cumulative
// bucket plus `_count` and `_sum`, Prometheus-style, so they survive the
// same flat codec unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bng::obs {

/// What a metric's value is denominated in. Purely descriptive (schema
/// listings, docs); never touches the wire format.
enum class Unit : std::uint8_t {
  kNone,     ///< dimensionless (ratios, shares, flags)
  kSeconds,  ///< sim-time or wall-time seconds
  kCount,    ///< discrete events/objects
  kBytes,
};

[[nodiscard]] const char* unit_name(Unit u);

/// Monotonically increasing event count. u64 internally; snapshots as the
/// exact double when representable (counts in one experiment stay far below
/// 2^53).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar. May legitimately hold NaN/inf (e.g. a percentile
/// over an empty sample); the record codec preserves the exact bits.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bound histogram: bucket upper bounds are set at registration and
/// never change, so observe() is a linear scan over a handful of doubles —
/// no allocation, no atomics. Snapshots cumulatively (`le_<bound>` counts
/// include every smaller bucket, `_count` includes the overflow tail).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;         ///< ascending upper bounds
  std::vector<std::uint64_t> counts_;  ///< per-bucket (non-cumulative) counts
  std::uint64_t overflow_ = 0;         ///< observations above the last bound
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// One registry per experiment/benchmark. Registration returns a stable
/// reference (deque-like storage; references never move), re-registering an
/// existing name returns the same metric, and a name registered as two
/// different kinds throws — the schema is append-only within a run.
class Registry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string description;
    Unit unit = Unit::kNone;
    Kind kind = Kind::kGauge;
    std::size_t slot = 0;  ///< index into the per-kind storage
  };

  Counter& counter(std::string name, Unit unit = Unit::kCount,
                   std::string description = {});
  Gauge& gauge(std::string name, Unit unit = Unit::kNone,
               std::string description = {});
  Histogram& histogram(std::string name, std::vector<double> bounds,
                       Unit unit = Unit::kNone, std::string description = {});

  /// Registration-order metadata — the schema listing (`ngsim
  /// --list-metrics` renders this).
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Flatten every metric, in registration order, to the (name, value)
  /// schema RunRecords carry. Counters emit one value; histograms expand to
  /// `name_count`, `name_sum`, then one cumulative `name_le_<bound>` per
  /// bucket (bound formatted with %g — stable and short).
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  const Entry* find(const std::string& name) const;
  Entry& add(std::string name, Unit unit, std::string description, Kind kind,
             std::size_t slot);

  std::vector<Entry> entries_;
  // unique_ptr storage keeps references stable across registrations.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bng::obs
