// Property tests: the ledger as a value-conserving state machine.
#include <gtest/gtest.h>

#include "chain/block_tree.hpp"
#include "chain/utxo.hpp"
#include "common/rng.hpp"

namespace bng::chain {
namespace {

/// Random but valid transfer workload: supply must be conserved exactly
/// except for explicit mints (coinbase) and declared fees.
class LedgerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerPropertyTest, SupplyConservedUnderRandomTransfers) {
  Rng rng(GetParam());
  Params params = Params::bitcoin_ng();
  params.coinbase_maturity = 0;
  Ledger ledger(params);

  const std::size_t n_outputs = 50;
  auto genesis = make_genesis(n_outputs, kCoin);
  ASSERT_TRUE(ledger.apply_block(*genesis).ok);

  // Live outpoints with value and owner tag.
  struct Live {
    Outpoint op;
    Amount value;
  };
  std::vector<Live> live;
  const Hash256 genesis_txid = genesis->txs()[0]->id();
  for (std::uint32_t i = 0; i < n_outputs; ++i)
    live.push_back({Outpoint{genesis_txid, i}, kCoin});

  Amount total_fees = 0;
  Hash256 prev = genesis->id();
  std::uint64_t tag = 1'000'000;

  for (int round = 0; round < 20; ++round) {
    // Build a microblock of random transfers spending random live outputs.
    std::vector<TxPtr> txs;
    const std::size_t spends = 1 + rng.next_below(std::min<std::size_t>(5, live.size()));
    for (std::size_t s = 0; s < spends; ++s) {
      const std::size_t pick = rng.next_below(live.size());
      Live src = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      const Amount fee = static_cast<Amount>(rng.next_below(1000));
      // Split into two outputs sometimes.
      auto tx = std::make_shared<Transaction>();
      tx->inputs.push_back(TxInput{src.op});
      tx->fee = fee;
      const Amount remainder = src.value - fee;
      if (remainder > 1 && rng.next_below(2) == 0) {
        const Amount a = 1 + static_cast<Amount>(
                                 rng.next_below(static_cast<std::uint64_t>(remainder - 1)));
        tx->outputs.push_back(TxOutput{a, address_from_tag(tag++)});
        tx->outputs.push_back(TxOutput{remainder - a, address_from_tag(tag++)});
      } else {
        tx->outputs.push_back(TxOutput{remainder, address_from_tag(tag++)});
      }
      total_fees += fee;
      txs.push_back(tx);
      for (std::uint32_t v = 0; v < tx->outputs.size(); ++v)
        live.push_back({Outpoint{tx->id(), v}, tx->outputs[v].value});
    }

    BlockHeader h;
    h.type = BlockType::kMicro;
    h.prev = prev;
    h.timestamp = round + 1.0;
    h.merkle_root = compute_merkle_root(txs);
    auto sk = crypto::PrivateKey::from_seed(1);
    h.signature = crypto::sign(sk, h.signing_hash());
    auto block = std::make_shared<Block>(h, txs, 0);
    prev = block->id();
    auto r = ledger.apply_block(*block);
    ASSERT_TRUE(r.ok) << "round " << round << ": " << r.error;
  }

  // Conservation: sum of all UTXO values + fees paid == initial supply.
  Amount utxo_total = 0;
  for (const auto& l : live) {
    const UtxoEntry* e = ledger.utxo().find(l.op);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->out.value, l.value);
    utxo_total += e->out.value;
  }
  EXPECT_EQ(utxo_total + total_fees,
            static_cast<Amount>(n_outputs) * kCoin);
  EXPECT_EQ(ledger.utxo().size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

/// Random fork workloads: block-tree bookkeeping invariants hold at every
/// step regardless of insertion pattern.
class BlockTreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockTreePropertyTest, InvariantsUnderRandomForks) {
  Rng rng(GetParam());
  auto genesis = make_genesis(1, kCoin);
  BlockTree tree(genesis, TieBreak::kRandom, BlockTree::ForkChoice::kHeaviestChain, &rng);

  std::vector<Hash256> ids{genesis->id()};
  for (int i = 0; i < 120; ++i) {
    const Hash256& parent = ids[rng.next_below(ids.size())];
    const bool micro = rng.next_below(3) == 0;
    BlockHeader h;
    h.type = micro ? BlockType::kMicro : BlockType::kPow;
    h.prev = parent;
    h.timestamp = i + 1.0;
    h.nonce = static_cast<std::uint64_t>(i);
    auto block = std::make_shared<Block>(h, std::vector<TxPtr>{}, 0);
    ids.push_back(block->id());
    tree.insert(block, i + 1.0, micro ? 0.0 : 1.0);

    // Invariants:
    const auto& best = tree.best();
    for (const BlockId id : tree.accepted()) {
      const auto& entry = tree.facts(id);
      // chain work is parent's plus own.
      if (entry.parent != kNoBlockId) {
        const auto& p = tree.facts(entry.parent);
        EXPECT_EQ(entry.height, p.height + 1);
        EXPECT_GE(entry.chain_work, p.chain_work);
        EXPECT_LE(entry.chain_work, p.chain_work + 1.0);
      }
      // No entry outweighs the best tip.
      EXPECT_LE(entry.chain_work, best.chain_work);
    }
    // The path to the best tip is consistent.
    auto path = tree.path_from_genesis(tree.best_tip());
    EXPECT_EQ(path.front(), tree.genesis());
    EXPECT_EQ(path.back(), tree.best_tip());
    for (std::size_t p = 1; p < path.size(); ++p)
      EXPECT_TRUE(tree.is_ancestor(path[p - 1], path[p]));
  }
  EXPECT_EQ(tree.size(), 121u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockTreePropertyTest, ::testing::Values(7, 11, 19, 23));

}  // namespace
}  // namespace bng::chain
