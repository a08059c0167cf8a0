// The typed metric registry is the schema authority for RunRecord values:
// snapshot order and names are the wire format. These tests pin (a) the
// snapshot semantics — registration order, histogram expansion, idempotent
// re-registration, kind-mismatch rejection — and (b) the round trip of a
// registry snapshot through the binary record codec: byte-stability, and
// exact bits for non-finite values.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "runner/record.hpp"
#include "runner/record_codec.hpp"

namespace bng::obs {
namespace {

TEST(MetricRegistry, SnapshotFollowsRegistrationOrder) {
  Registry reg;
  reg.counter("blocks", Unit::kCount, "blocks accepted").inc(7);
  reg.gauge("mpu", Unit::kNone, "mining power utilization").set(0.875);
  reg.counter("txs").inc(100);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "blocks");
  EXPECT_DOUBLE_EQ(snap[0].second, 7.0);
  EXPECT_EQ(snap[1].first, "mpu");
  EXPECT_DOUBLE_EQ(snap[1].second, 0.875);
  EXPECT_EQ(snap[2].first, "txs");
  EXPECT_DOUBLE_EQ(snap[2].second, 100.0);
}

TEST(MetricRegistry, ReRegistrationReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("hits");
  a.inc(3);
  Counter& b = reg.counter("hits");  // same name, same kind -> same object
  EXPECT_EQ(&a, &b);
  b.inc(2);
  EXPECT_EQ(a.value(), 5u);
  ASSERT_EQ(reg.entries().size(), 1u);  // no duplicate schema entry
}

TEST(MetricRegistry, KindMismatchThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
}

TEST(MetricRegistry, HistogramExpandsCumulatively) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {0.5, 1.0, 2.0}, Unit::kSeconds);
  h.observe(0.2);   // bucket le_0.5
  h.observe(0.7);   // bucket le_1
  h.observe(0.9);   // bucket le_1
  h.observe(5.0);   // overflow: counted in _count only
  const auto snap = reg.snapshot();
  // name_count, name_sum, then one cumulative le_<bound> per bucket.
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap[0].first, "lat_count");
  EXPECT_DOUBLE_EQ(snap[0].second, 4.0);
  EXPECT_EQ(snap[1].first, "lat_sum");
  EXPECT_DOUBLE_EQ(snap[1].second, 0.2 + 0.7 + 0.9 + 5.0);
  EXPECT_EQ(snap[2].first, "lat_le_0.5");
  EXPECT_DOUBLE_EQ(snap[2].second, 1.0);
  EXPECT_EQ(snap[3].first, "lat_le_1");
  EXPECT_DOUBLE_EQ(snap[3].second, 3.0);  // cumulative: includes le_0.5
  EXPECT_EQ(snap[4].first, "lat_le_2");
  EXPECT_DOUBLE_EQ(snap[4].second, 3.0);
}

// A registry snapshot must survive the record pipeline unchanged: it IS the
// values schema of every sweep artifact.
runner::RunRecord record_from(const Registry& reg) {
  runner::RunRecord rec;
  rec.point = 3;
  rec.ordinal = 1;
  rec.seed = 0xdeadbeef;
  rec.digest = 0x1234567890abcdefull;
  rec.values = reg.snapshot();
  return rec;
}

TEST(MetricRegistry, RoundTripsThroughBinaryCodecByteStably) {
  Registry reg;
  reg.counter("main_pow_blocks").inc(42);
  reg.gauge("fairness").set(0.3125);  // exactly representable
  reg.histogram("delay", {1.0, 4.0}, Unit::kSeconds).observe(2.5);

  const runner::RunRecord rec = record_from(reg);
  const std::string bytes = runner::encode_record(rec);
  const runner::RunRecord back = runner::decode_record(bytes);

  ASSERT_EQ(back.values.size(), rec.values.size());
  for (std::size_t i = 0; i < rec.values.size(); ++i) {
    EXPECT_EQ(back.values[i].first, rec.values[i].first);
    EXPECT_DOUBLE_EQ(back.values[i].second, rec.values[i].second);
  }
  // Byte stability: re-encoding the decoded record is the identity.
  EXPECT_EQ(runner::encode_record(back), bytes);
}

TEST(MetricRegistry, NonFiniteGaugesSurviveBinaryCodec) {
  Registry reg;
  reg.gauge("p90_empty").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("ratio_div0").set(std::numeric_limits<double>::infinity());
  reg.gauge("neg_inf").set(-std::numeric_limits<double>::infinity());

  const runner::RunRecord rec = record_from(reg);

  const runner::RunRecord bin = runner::decode_record(runner::encode_record(rec));
  EXPECT_TRUE(std::isnan(bin.values[0].second));
  EXPECT_EQ(bin.values[1].second, std::numeric_limits<double>::infinity());
  EXPECT_EQ(bin.values[2].second, -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace bng::obs
