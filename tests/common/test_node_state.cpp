// NodeStateArena: the FlatIdSet-shaped view semantics over the one
// experiment-wide arena — plane/row isolation, per-row epoch clear, erase,
// and the relayout that widens every row at once when an id outgrows the
// capacity.
#include <gtest/gtest.h>

#include <vector>

#include "common/node_state.hpp"

namespace bng {
namespace {

TEST(NodeState, ViewsIsolatedAcrossPlanesAndRows) {
  NodeStateArena arena(4);
  ArenaIdSet a(arena, NodeStateArena::kKnown, 1);
  ArenaIdSet b(arena, NodeStateArena::kKnown, 2);
  ArenaIdSet a_req(arena, NodeStateArena::kRequested, 1);
  a.insert(7);
  EXPECT_TRUE(a.contains(7));
  EXPECT_FALSE(b.contains(7));      // one row per node
  EXPECT_FALSE(a_req.contains(7));  // planes are independent rows
  a_req.insert(9);
  EXPECT_TRUE(a_req.contains(9));
  EXPECT_FALSE(a.contains(9));
}

TEST(NodeState, ClearBumpsOnlyItsOwnRow) {
  NodeStateArena arena(4);
  ArenaIdSet a(arena, NodeStateArena::kKnown, 1);
  ArenaIdSet b(arena, NodeStateArena::kKnown, 2);
  a.insert(7);
  b.insert(7);
  a.clear();
  EXPECT_FALSE(a.contains(7));
  EXPECT_TRUE(b.contains(7));  // epoch bump is per row, not global
  a.insert(7);                 // re-insert stamps the new epoch
  EXPECT_TRUE(a.contains(7));
}

TEST(NodeState, EraseRemovesOneMember) {
  NodeStateArena arena(2);
  ArenaIdSet a(arena, NodeStateArena::kKnown, 0);
  a.insert(3);
  a.insert(4);
  a.erase(3);
  EXPECT_FALSE(a.contains(3));
  EXPECT_TRUE(a.contains(4));
  // Erasing an id past the capacity is a no-op, not a growth trigger.
  const std::uint32_t cap = arena.capacity();
  a.erase(100'000);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(NodeState, RelayoutKeepsEveryOtherRowsMembers) {
  constexpr std::uint32_t kNodes = 5;
  NodeStateArena arena(kNodes);
  std::vector<ArenaIdSet> rows;
  for (const auto plane : {NodeStateArena::kKnown, NodeStateArena::kRequested})
    for (NodeId n = 0; n < kNodes; ++n) rows.emplace_back(arena, plane, n);
  // A distinct member per row, plus one shared id, all below the first
  // capacity; row 3 is then cleared so it holds only stale stamps.
  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    rows[r].insert(r);
    rows[r].insert(40);
  }
  rows[3].clear();
  const std::uint32_t cap_before = arena.capacity();

  rows[1].insert(10'000);  // one row forces the whole arena to relayout
  ASSERT_GT(arena.capacity(), cap_before);
  ASSERT_GE(arena.capacity(), 10'001u);

  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    const bool live = r != 3;
    for (BlockId id = 0; id < rows.size(); ++id)
      EXPECT_EQ(rows[r].contains(id), live && id == r) << "row " << r << " id " << id;
    EXPECT_EQ(rows[r].contains(40), live) << "row " << r;
    EXPECT_EQ(rows[r].contains(10'000), r == 1) << "row " << r;
  }
}

}  // namespace
}  // namespace bng
