// Differential test: node trees over one shared BlockStore against the
// per-node tree they replaced (support/reference_block_tree.hpp).
//
// Several trees are views of one store; each is paired with a reference tree that
// keeps every fact privately, and the pair draws tie-breaks from
// same-seeded Rngs. All trees receive one random DAG of PoW, key and
// zero-work micro blocks, each in its own parent-respecting order, so the
// tree that admits a block to the store first varies from block to block.
// After every insert the pair must agree on the best tip, the tip history,
// the acceptance order and arrival times, the inserted block's facts, the
// GHOST subtree work, and the answers to the ancestry queries. The reference
// names blocks by its own entry index; its answers are compared by hash.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "../support/reference_block_tree.hpp"
#include "chain/block_store.hpp"
#include "chain/block_tree.hpp"

namespace bng::chain {
namespace {

using testing::ReferenceBlockTree;

struct Mode {
  const char* name;
  TieBreak tie_break;
  double tie_switch_prob;
  BlockTree::ForkChoice fork_choice;
};

// The mode's name, so test listings (and ctest names) stay stable.
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

struct DagBlock {
  BlockPtr block;
  std::size_t parent;  ///< index into the DAG; genesis is 0
  double work;
};

/// A random block DAG in creation order (parents first, timestamps rising).
/// Blocks fork off recent blocks most of the time, so chains grow deep while
/// equal-work siblings keep the tie-break rule busy. Payload txs carry
/// fees; coinbase and poison txs must not count towards the chain sums.
std::vector<DagBlock> random_dag(const BlockPtr& genesis, std::size_t n, Rng& rng) {
  std::vector<DagBlock> dag{{genesis, 0, 0.0}};
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t window = std::min<std::size_t>(dag.size(), 6);
    const std::size_t parent = rng.next_below(4) == 0
                                   ? rng.next_below(dag.size())
                                   : dag.size() - 1 - rng.next_below(window);
    const auto roll = rng.next_below(10);
    const BlockType type = roll < 4 ? BlockType::kMicro
                           : roll < 7 ? BlockType::kKey
                                      : BlockType::kPow;
    const double work = type == BlockType::kMicro ? 0.0 : (rng.next_below(8) == 0 ? 2.0 : 1.0);
    std::vector<TxPtr> txs;
    if (type != BlockType::kMicro) {
      auto coinbase = std::make_shared<Transaction>();
      coinbase->coinbase_height = static_cast<std::uint32_t>(i);
      coinbase->fee = 5;
      txs.push_back(std::move(coinbase));
    }
    if (rng.next_below(5) == 0) {
      auto poison = std::make_shared<Transaction>();
      poison->poison = PoisonPayload{};
      poison->fee = 7;
      txs.push_back(std::move(poison));
    }
    for (std::uint64_t t = rng.next_below(4); t > 0; --t) {
      auto tx = std::make_shared<Transaction>();
      tx->fee = static_cast<Amount>(1 + rng.next_below(100));
      tx->padding_bytes = static_cast<std::uint32_t>(i * 8 + t);
      txs.push_back(std::move(tx));
    }
    BlockHeader h;
    h.type = type;
    h.prev = dag[parent].block->id();
    h.timestamp = static_cast<Seconds>(i);
    h.nonce = i;
    dag.push_back({std::make_shared<Block>(h, std::move(txs), 0, work), parent, work});
  }
  return dag;
}

/// A random parent-respecting order of dag[1..]: repeatedly pick any block
/// whose parent is already placed.
std::vector<std::size_t> random_order(const std::vector<DagBlock>& dag, Rng& rng) {
  std::vector<std::vector<std::size_t>> children(dag.size());
  for (std::size_t i = 1; i < dag.size(); ++i) children[dag[i].parent].push_back(i);
  std::vector<std::size_t> ready = children[0];
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t k = rng.next_below(ready.size());
    const std::size_t i = ready[k];
    ready[k] = ready.back();
    ready.pop_back();
    order.push_back(i);
    ready.insert(ready.end(), children[i].begin(), children[i].end());
  }
  return order;
}

/// One node's view under test with its reference twin.
struct Pair {
  Pair(const BlockPtr& genesis, const Mode& mode, std::uint64_t seed,
       const std::shared_ptr<BlockStore>& store, std::uint32_t view)
      : rng(seed),
        ref_rng(seed),
        tree(genesis, mode.tie_break, mode.fork_choice, &rng, store, view),
        ref(genesis, mode.tie_break,
            mode.fork_choice == BlockTree::ForkChoice::kHeaviestChain
                ? ReferenceBlockTree::ForkChoice::kHeaviestChain
                : ReferenceBlockTree::ForkChoice::kHeaviestSubtree,
            &ref_rng) {
    tree.set_tie_switch_prob(mode.tie_switch_prob);
    ref.set_tie_switch_prob(mode.tie_switch_prob);
  }

  /// The store's id for the reference's entry `idx`.
  [[nodiscard]] BlockId id_of(std::uint32_t idx) const {
    return tree.store().lookup(ref.entry(idx).block->id());
  }

  Rng rng;
  Rng ref_rng;
  BlockTree tree;
  ReferenceBlockTree ref;
  std::vector<std::size_t> order;
};

void expect_same_facts(const Pair& p, std::uint32_t idx) {
  const ReferenceBlockTree::Entry& e = p.ref.entry(idx);
  const BlockId id = p.id_of(idx);
  ASSERT_TRUE(p.tree.contains_id(id));
  const BlockFacts& f = p.tree.facts(id);
  EXPECT_EQ(f.block->id(), e.block->id());
  EXPECT_EQ(f.parent, e.parent < 0 ? kNoBlockId : p.id_of(static_cast<std::uint32_t>(e.parent)));
  EXPECT_EQ(f.jump, p.id_of(e.jump));
  EXPECT_EQ(f.height, e.height);
  EXPECT_EQ(f.pow_height, e.pow_height);
  EXPECT_EQ(f.chain_work, e.chain_work);
  EXPECT_EQ(f.chain_tx_count, e.chain_tx_count);
  EXPECT_EQ(f.chain_fee_sum, e.chain_fee_sum);
  EXPECT_EQ(f.epoch_key_block, p.id_of(e.epoch_key_block));
  EXPECT_EQ(p.tree.received(id), e.received);
}

void expect_same_view(const Pair& p, Rng& query_rng) {
  const auto n = static_cast<std::uint32_t>(p.ref.size());
  ASSERT_EQ(p.tree.size(), n);
  EXPECT_EQ(p.tree.best_tip(), p.id_of(p.ref.best_tip()));

  const auto& hist = p.tree.tip_history();
  const auto& ref_hist = p.ref.tip_history();
  ASSERT_EQ(hist.size(), ref_hist.size());
  for (std::size_t i = 0; i < hist.size(); ++i) {
    EXPECT_EQ(hist[i].at, ref_hist[i].at) << "tip change " << i;
    EXPECT_EQ(hist[i].tip, p.id_of(ref_hist[i].tip)) << "tip change " << i;
  }

  const std::vector<BlockId> accepted = p.tree.accepted();
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(accepted[i], p.id_of(i)) << "acceptance slot " << i;
  expect_same_facts(p, n - 1);

  for (int q = 0; q < 8; ++q) {
    const auto a = static_cast<std::uint32_t>(query_rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(query_rng.next_below(n));
    const BlockId ia = p.id_of(a);
    const BlockId ib = p.id_of(b);
    EXPECT_EQ(p.tree.is_ancestor(ia, ib), p.ref.is_ancestor(a, b));
    const auto h = static_cast<std::uint32_t>(query_rng.next_below(p.ref.entry(a).height + 1));
    EXPECT_EQ(p.tree.store().ancestor_at_height(ia, h), p.id_of(p.ref.ancestor_at_height(a, h)));
    const Seconds t = static_cast<Seconds>(query_rng.next_below(n + 2)) - 0.5;
    EXPECT_EQ(p.tree.ancestor_at_or_before(ia, t), p.id_of(p.ref.ancestor_at_or_before(a, t)));
    const auto path = p.tree.path_from_genesis(ia);
    const auto ref_path = p.ref.path_from_genesis(a);
    ASSERT_EQ(path.size(), ref_path.size());
    for (std::size_t k = 0; k < path.size(); ++k) EXPECT_EQ(path[k], p.id_of(ref_path[k]));
  }
}

class BlockTreeDifferential
    : public ::testing::TestWithParam<std::tuple<Mode, std::uint64_t>> {};

TEST_P(BlockTreeDifferential, SharedStoreTreesMatchTheReferenceAfterEveryInsert) {
  const auto& [mode, seed] = GetParam();
  constexpr std::size_t kTrees = 4;
  constexpr std::size_t kBlocks = 150;
  const bool ghost = mode.fork_choice == BlockTree::ForkChoice::kHeaviestSubtree;

  auto genesis = make_genesis(1, kCoin);
  Rng dag_rng(seed);
  const std::vector<DagBlock> dag = random_dag(genesis, kBlocks, dag_rng);

  // The four trees are four views of one store, as node trees are.
  auto store = std::make_shared<BlockStore>(kTrees);
  std::vector<std::unique_ptr<Pair>> pairs;
  for (std::size_t k = 0; k < kTrees; ++k) {
    pairs.push_back(std::make_unique<Pair>(genesis, mode, seed * 31 + k, store,
                                           static_cast<std::uint32_t>(k)));
    // Tree 0 sees blocks in creation order, like the trace recorder's
    // global tree; the others in their own random orders.
    if (k == 0) {
      for (std::size_t i = 1; i < dag.size(); ++i) pairs[k]->order.push_back(i);
    } else {
      Rng order_rng(seed * 97 + k);
      pairs[k]->order = random_order(dag, order_rng);
    }
  }

  Rng query_rng(seed ^ 0xd1ffu);
  for (std::size_t step = 0; step < kBlocks; ++step) {
    for (std::size_t k = 0; k < kTrees; ++k) {
      Pair& p = *pairs[k];
      const DagBlock& b = dag[p.order[step]];
      const Seconds at = static_cast<Seconds>(step) + 0.25 * static_cast<double>(k);
      p.tree.insert(b.block, p.tree.intern(b.block->id()), at, b.work);
      p.ref.insert(b.block, at, b.work);
      SCOPED_TRACE("mode " + std::string(mode.name) + ", tree " + std::to_string(k) +
                   ", step " + std::to_string(step));
      expect_same_view(p, query_rng);
      if (ghost) {
        for (std::uint32_t i = 0; i < p.ref.size(); ++i)
          ASSERT_EQ(p.tree.subtree_work(p.id_of(i)), p.ref.entry(i).subtree_work)
              << "subtree work of slot " << i;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  for (const auto& p : pairs)
    for (std::uint32_t i = 0; i < p->ref.size(); ++i) expect_same_facts(*p, i);
}

const Mode kModes[] = {
    {"chain_random", TieBreak::kRandom, 0.5, BlockTree::ForkChoice::kHeaviestChain},
    {"chain_biased", TieBreak::kRandom, 0.8, BlockTree::ForkChoice::kHeaviestChain},
    {"chain_first_seen", TieBreak::kFirstSeen, 0.5, BlockTree::ForkChoice::kHeaviestChain},
    {"ghost_random", TieBreak::kRandom, 0.5, BlockTree::ForkChoice::kHeaviestSubtree},
    {"ghost_first_seen", TieBreak::kFirstSeen, 0.5, BlockTree::ForkChoice::kHeaviestSubtree},
};

INSTANTIATE_TEST_SUITE_P(
    Modes, BlockTreeDifferential,
    ::testing::Combine(::testing::ValuesIn(kModes), ::testing::Values(std::uint64_t{3}, std::uint64_t{17}, std::uint64_t{101})),
    [](const ::testing::TestParamInfo<BlockTreeDifferential::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bng::chain
