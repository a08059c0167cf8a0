#include "common/intern.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bng {
namespace {

Hash256 h(std::uint64_t tag) { return crypto::sha256(std::to_string(tag)); }

TEST(BlockInterner, AssignsDenseIdsInFirstSightOrder) {
  BlockInterner in;
  EXPECT_EQ(in.size(), 0u);
  EXPECT_EQ(in.intern(h(1)), 0u);
  EXPECT_EQ(in.intern(h(2)), 1u);
  EXPECT_EQ(in.intern(h(3)), 2u);
  // Re-interning is idempotent and does not mint a new id.
  EXPECT_EQ(in.intern(h(2)), 1u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(BlockInterner, LookupDoesNotAssign) {
  BlockInterner in;
  in.intern(h(1));
  EXPECT_EQ(in.lookup(h(1)), 0u);
  EXPECT_EQ(in.lookup(h(99)), kNoBlockId);
  EXPECT_EQ(in.size(), 1u);
}

TEST(BlockInterner, HashOfRoundTrips) {
  BlockInterner in;
  for (std::uint64_t i = 0; i < 100; ++i) in.intern(h(i));
  for (BlockId id = 0; id < 100; ++id) EXPECT_EQ(in.intern(in.hash_of(id)), id);
  EXPECT_THROW((void)in.hash_of(100), std::out_of_range);
}

}  // namespace
}  // namespace bng
