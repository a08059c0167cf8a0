// NodeStateArena: the block-major gossip arena — one byte per (block, node)
// holding a known bit and a requested bit, rows appended as ids grow, and
// "seen" (known or requested) that never clears.
#include <gtest/gtest.h>

#include "common/node_state.hpp"

namespace bng {
namespace {

// The two bits of a (block, node) entry, and the entries of other nodes and
// other blocks, are all independent.
TEST(NodeState, ViewsIsolatedAcrossPlanesAndRows) {
  NodeStateArena arena(4);
  arena.learn(7, 1);
  EXPECT_TRUE(arena.known(7, 1));
  EXPECT_TRUE(arena.seen(7, 1));
  EXPECT_FALSE(arena.seen(7, 2));  // one column per node
  EXPECT_FALSE(arena.seen(6, 1));  // one row per block
  EXPECT_FALSE(arena.seen(8, 1));

  arena.request(9, 1);
  EXPECT_TRUE(arena.seen(9, 1));
  EXPECT_FALSE(arena.known(9, 1));  // requested is not known
  EXPECT_FALSE(arena.seen(9, 0));
  EXPECT_FALSE(arena.seen(9, 3));
  EXPECT_TRUE(arena.known(7, 1));
}

// learn() sets known and clears requested for exactly one entry; "seen" never
// clears.
TEST(NodeState, EraseRemovesOneMember) {
  NodeStateArena arena(2);
  arena.request(3, 0);
  arena.request(3, 1);
  arena.learn(3, 0);
  EXPECT_TRUE(arena.known(3, 0));
  EXPECT_TRUE(arena.seen(3, 0));
  EXPECT_FALSE(arena.known(3, 1));  // the other node still only requested it
  EXPECT_TRUE(arena.seen(3, 1));

  arena.request(3, 0);  // a stray request after learning keeps it known
  EXPECT_TRUE(arena.known(3, 0));
  arena.learn(3, 0);
  EXPECT_TRUE(arena.known(3, 0));

  // Reading an id past the stored rows is "not seen", and grows nothing.
  const std::size_t rows = arena.rows();
  EXPECT_FALSE(arena.seen(100'000, 1));
  EXPECT_FALSE(arena.known(100'000, 1));
  EXPECT_EQ(arena.rows(), rows);
}

// A new id appends rows; every entry already stored keeps its bits.
TEST(NodeState, RelayoutKeepsEveryOtherRowsMembers) {
  constexpr std::uint32_t kNodes = 5;
  NodeStateArena arena(kNodes);
  EXPECT_EQ(arena.rows(), 0u);
  for (NodeId n = 0; n < kNodes; ++n) {
    arena.learn(n, n);
    arena.request(40, n);
  }
  EXPECT_EQ(arena.rows(), 41u);

  arena.learn(10'000, 1);
  EXPECT_EQ(arena.rows(), 10'001u);

  for (NodeId n = 0; n < kNodes; ++n) {
    for (BlockId id = 0; id < kNodes; ++id)
      EXPECT_EQ(arena.known(id, n), id == n) << "block " << id << " node " << n;
    EXPECT_TRUE(arena.seen(40, n)) << "node " << n;
    EXPECT_FALSE(arena.known(40, n)) << "node " << n;
    EXPECT_EQ(arena.known(10'000, n), n == 1) << "node " << n;
  }
}

}  // namespace
}  // namespace bng
