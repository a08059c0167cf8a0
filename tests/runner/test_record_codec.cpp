// RunRecord codec: byte-stable binary round trips, version-mismatch
// rejection, and the truncated/corrupt-stream error paths. The codec is the
// wire format between the sweep parent and its worker processes, so "any
// record survives the trip bit-exactly" is a correctness property of the
// whole process-pool path, not a nicety.
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "runner/record_codec.hpp"

namespace bng::runner {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double double_from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.ordinal, b.ordinal);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].first, b.values[i].first);
    EXPECT_EQ(bits_of(a.values[i].second), bits_of(b.values[i].second))
        << "value " << a.values[i].first << " not bit-identical";
  }
  ASSERT_EQ(a.attacker.has_value(), b.attacker.has_value());
  if (a.attacker) {
    EXPECT_EQ(bits_of(a.attacker->revenue_share), bits_of(b.attacker->revenue_share));
    EXPECT_EQ(bits_of(a.attacker->fair_share), bits_of(b.attacker->fair_share));
    EXPECT_EQ(bits_of(a.attacker->relative_gain), bits_of(b.attacker->relative_gain));
    EXPECT_EQ(bits_of(a.attacker->attacker_acceptance),
              bits_of(b.attacker->attacker_acceptance));
    EXPECT_EQ(bits_of(a.attacker->honest_acceptance),
              bits_of(b.attacker->honest_acceptance));
    EXPECT_EQ(a.attacker->attacker_main_blocks, b.attacker->attacker_main_blocks);
    EXPECT_EQ(a.attacker->main_blocks, b.attacker->main_blocks);
    EXPECT_EQ(a.attacker->attacker_generated, b.attacker->attacker_generated);
    EXPECT_EQ(a.attacker->total_generated, b.attacker->total_generated);
  }
}

/// Randomized record; doubles are arbitrary bit patterns, NaN and inf
/// included.
RunRecord random_record(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> small(0, 1000);
  std::uniform_int_distribution<std::size_t> n_values(0, 24);
  std::uniform_int_distribution<std::size_t> name_len(1, 40);
  std::uniform_int_distribution<int> name_char(0, 63);
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";

  auto any_double = [&] { return double_from_bits(rng()); };

  RunRecord r;
  r.point = small(rng);
  r.ordinal = small(rng);
  r.seed = rng();
  r.digest = rng();
  const std::size_t n = n_values(rng);
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    const std::size_t len = name_len(rng);
    for (std::size_t c = 0; c < len; ++c) name += kAlphabet[name_char(rng)];
    r.values.emplace_back(std::move(name), any_double());
  }
  if (rng() & 1) {
    metrics::AttackerReport a;
    a.revenue_share = any_double();
    a.fair_share = any_double();
    a.relative_gain = any_double();
    a.attacker_acceptance = any_double();
    a.honest_acceptance = any_double();
    a.attacker_main_blocks = small(rng);
    a.main_blocks = small(rng);
    a.attacker_generated = rng();
    a.total_generated = rng();
    r.attacker = a;
  }
  return r;
}

TEST(RecordCodec, BinaryRoundTripFuzz) {
  std::mt19937_64 rng(0xc0dec);
  for (int i = 0; i < 300; ++i) {
    const RunRecord r = random_record(rng);
    const std::string bytes = encode_record(r);
    expect_identical(r, decode_record(bytes));
    // Byte-stability: re-encoding the decoded record reproduces the bytes.
    EXPECT_EQ(bytes, encode_record(decode_record(bytes)));
  }
}

TEST(RecordCodec, RejectsVersionMismatch) {
  std::mt19937_64 rng(7);
  std::string bytes = encode_record(random_record(rng));
  // Version lives at offset 4 (after the "BNGR" magic), little-endian u16.
  bytes[4] = static_cast<char>((kRecordCodecVersion + 1) & 0xff);
  bytes[5] = static_cast<char>(((kRecordCodecVersion + 1) >> 8) & 0xff);
  EXPECT_THROW(decode_record(bytes), CodecError);
}

TEST(RecordCodec, RejectsBadMagicAndTrailingBytes) {
  std::mt19937_64 rng(8);
  const RunRecord r = random_record(rng);
  std::string bytes = encode_record(r);
  std::string wrong = bytes;
  wrong[0] = 'X';
  EXPECT_THROW(decode_record(wrong), CodecError);
  EXPECT_THROW(decode_record(bytes + "junk"), CodecError);
}

TEST(RecordCodec, EveryTruncationThrowsCleanly) {
  // A short read / killed worker yields a prefix of a record: every prefix
  // must throw CodecError rather than crash or return garbage.
  std::mt19937_64 rng(9);
  const RunRecord r = random_record(rng);
  const std::string bytes = encode_record(r);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(decode_record(std::string_view(bytes).substr(0, len)), CodecError)
        << "prefix length " << len;
}

TEST(RecordCodec, FramingReassemblesSplitStreams) {
  std::mt19937_64 rng(11);
  const RunRecord a = random_record(rng);
  const RunRecord b = random_record(rng);
  const std::string stream = frame(encode_record(a)) + frame(encode_record(b));

  // Feed the stream one byte at a time: frames pop out exactly twice, intact.
  std::string buffer;
  std::string payload;
  std::vector<RunRecord> out;
  for (char c : stream) {
    buffer.push_back(c);
    while (take_frame(buffer, payload)) out.push_back(decode_record(payload));
  }
  EXPECT_TRUE(buffer.empty());
  ASSERT_EQ(out.size(), 2u);
  expect_identical(a, out[0]);
  expect_identical(b, out[1]);
}

TEST(RecordCodec, FramingRejectsCorruptLengthPrefix) {
  std::string buffer = "\xff\xff\xff\xff payload";  // 4 GB length prefix
  std::string payload;
  EXPECT_THROW(take_frame(buffer, payload), CodecError);
}

}  // namespace
}  // namespace bng::runner
