// Shared synthetic workload: one immutable tx pool across experiments
// (ROADMAP "synthetic-workload memory") without cross-talk.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "runner/digest.hpp"
#include "sim/experiment.hpp"
#include "sim/trace.hpp"

namespace bng::sim {
namespace {

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.block_interval = 10.0;
  cfg.params.max_block_size = 4000;
  cfg.num_nodes = 12;
  cfg.target_blocks = 3;
  cfg.drain_time = 20;
  cfg.seed = seed;
  return cfg;
}

/// The bitcoin_fig7 perfbench pool's inputs (60 kB blocks, 30 blocks).
ExperimentConfig fig7_config() {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.max_block_size = 60000;
  cfg.target_blocks = 30;
  cfg.pool_size = 8560;
  return cfg;
}

constexpr std::uint64_t kFig7PoolDigest = 0x44e3471f18e43e43ull;

/// FNV-1a over the genesis and every transaction's id and wire size.
std::uint64_t pool_digest(const PrebuiltWorkload& pool, std::span<const chain::TxPtr> txs) {
  runner::Digest d;
  d.bytes(pool.genesis->id().bytes.data(), 32);
  d.u64(pool.genesis->wire_size());
  for (const auto& tx : txs) {
    d.bytes(tx->id().bytes.data(), 32);
    d.u64(tx->wire_size());
  }
  return d.h;
}

/// The run's observable output: the generated-block trace.
std::vector<std::pair<Hash256, double>> trace_of(const Experiment& exp) {
  std::vector<std::pair<Hash256, double>> out;
  for (const auto& g : exp.trace().generated()) out.emplace_back(g.block->id(), g.at);
  return out;
}

TEST(SharedWorkload, MatchesOwnedWorkload) {
  auto pool = build_shared_workload(small_config(7));

  ExperimentConfig owned_cfg = small_config(7);
  Experiment owned(owned_cfg);
  owned.run();

  ExperimentConfig shared_cfg = small_config(7);
  shared_cfg.shared_workload = pool;
  Experiment shared(shared_cfg);
  shared.run();

  // Same genesis, same pool contents, same simulation outcome.
  EXPECT_EQ(owned.genesis()->id(), shared.genesis()->id());
  ASSERT_EQ(owned.workload().size(), shared.workload().size());
  EXPECT_EQ(owned.workload().tx(0)->id(), shared.workload().tx(0)->id());
  EXPECT_EQ(trace_of(owned), trace_of(shared));
}

TEST(SharedWorkload, NoCrossTalkBetweenExperiments) {
  auto pool = build_shared_workload(small_config(7));
  const std::size_t pool_txs = pool->workload.size();
  const Hash256 first_id = pool->workload.tx(0)->id();
  const Hash256 last_id = pool->workload.tx(pool_txs - 1)->id();

  // Baseline: run seed 7 alone off the shared pool.
  std::vector<std::pair<Hash256, double>> baseline;
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    baseline = trace_of(exp);
  }

  // A different seed runs off the same pool (different schedule, different
  // blocks)...
  {
    ExperimentConfig cfg = small_config(8);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_NE(trace_of(exp), baseline);
  }

  // ...and must not have perturbed the pool or later runs: seed 7 again
  // reproduces the baseline exactly, and the pool is unchanged.
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_EQ(trace_of(exp), baseline);
  }
  EXPECT_EQ(pool->workload.size(), pool_txs);
  EXPECT_EQ(pool->workload.tx(0)->id(), first_id);
  EXPECT_EQ(pool->workload.tx(pool_txs - 1)->id(), last_id);
}

TEST(SharedWorkload, ExperimentsDropTheirReference) {
  auto pool = build_shared_workload(small_config(7));
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_GT(pool.use_count(), 1);
  }
  // No leaked references once the experiment is gone: a sweep can free the
  // pool after its point's last seed.
  EXPECT_EQ(pool.use_count(), 1);
}

TEST(SharedWorkload, BuildIsSeedIndependent) {
  auto a = build_shared_workload(small_config(1));
  auto b = build_shared_workload(small_config(999));
  ASSERT_EQ(a->workload.size(), b->workload.size());
  EXPECT_EQ(a->genesis->id(), b->genesis->id());
  EXPECT_EQ(a->workload.tx(0)->id(), b->workload.tx(0)->id());
  EXPECT_EQ(a->workload.tx_wire_size(), b->workload.tx_wire_size());
}

TEST(SharedWorkload, Fig7PoolMatchesItsPinnedDigest) {
  // The bitcoin_fig7 perfbench pool (60 kB blocks, 30 blocks, 8,560 txs).
  // The digest was recorded with the portable SHA-256 kernel and the
  // serialize-per-accessor caches; any kernel or serialization change that
  // moves a txid or a size moves it.
  const auto pool = build_shared_workload(fig7_config());
  ASSERT_EQ(pool->workload.size(), 8560u);
  EXPECT_EQ(pool->workload.tx_wire_size(), 476u);
  EXPECT_EQ(pool_digest(*pool, pool->workload.txs(0, pool->workload.size())),
            kFig7PoolDigest);
}

TEST(SharedWorkload, BuildsOnlyWhatBlocksRead) {
  const auto pool = build_shared_workload(fig7_config());
  const protocol::SyntheticWorkload& w = pool->workload;
  EXPECT_EQ(w.built(), 1u);  // transaction 0 gives the wire size
  (void)w.txs(200, 126);
  EXPECT_EQ(w.built(), 326u);  // a prefix, up to the highest index read
  (void)w.txs(10, 5);
  EXPECT_EQ(w.built(), 326u);
  EXPECT_THROW((void)w.txs(8500, 61), std::out_of_range);
  EXPECT_EQ(w.built(), 326u);
}

TEST(SharedWorkload, ConcurrentReadersGetOneTransactionPerIndex) {
  // Four threads read one shared fig7 pool in interleaved, overlapping
  // block-sized windows, each with its own stride, so each keeps both
  // building past the watermark and reading what another thread built.
  const auto pool = build_shared_workload(fig7_config());
  const protocol::SyntheticWorkload& w = pool->workload;
  const std::size_t n = w.size();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWindow = 126;  // a 60 kB block's transactions
  std::vector<std::vector<const chain::Transaction*>> seen(
      kThreads, std::vector<const chain::Transaction*>(n, nullptr));
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t begin = t * 11; begin < n; begin += 29 + 8 * t) {
        const std::size_t count = std::min(kWindow, n - begin);
        const std::span<const chain::TxPtr> txs = w.txs(begin, count);
        for (std::size_t i = 0; i < count; ++i) {
          const chain::Transaction* tx = txs[i].get();
          const chain::Transaction*& slot = seen[t][begin + i];
          if (tx == nullptr || (slot != nullptr && slot != tx)) ++mismatches[t];
          slot = tx;
          (void)tx->id();  // reads the caches the build filled
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(w.built(), n);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[t][i] == nullptr) continue;
      EXPECT_EQ(seen[t][i], w.tx(i).get()) << t << " @" << i;
    }
  }
  EXPECT_EQ(pool_digest(*pool, w.txs(0, n)), kFig7PoolDigest);
}

/// A block's payload: its transactions minus the coinbase and any poison.
std::vector<chain::TxPtr> payload_of(const chain::Block& block) {
  std::vector<chain::TxPtr> out;
  for (const auto& tx : block.txs())
    if (!tx->is_coinbase() && !tx->poison) out.push_back(tx);
  return out;
}

/// Every generated block's payload is the pool slice [c, c + k), in order,
/// with c its parent's chain_tx_count. Returns the number of microblock
/// pairs that share a parent and a miner (an equivocating leader's forks),
/// after checking that both start at that parent's c.
std::size_t expect_pool_slices(const Experiment& exp) {
  const chain::BlockTree& g = exp.global_tree();
  const protocol::SyntheticWorkload& pool = exp.workload();
  std::map<std::pair<BlockId, NodeId>, std::vector<BlockId>> micro_children;
  for (const TraceRecorder::Generated& rec : exp.trace().generated()) {
    const BlockId parent = g.facts(rec.id).parent;
    const std::uint64_t c = g.facts(parent).chain_tx_count;
    const std::vector<chain::TxPtr> payload = payload_of(*rec.block);
    for (std::size_t k = 0; k < payload.size(); ++k) {
      if (c + k >= pool.size()) {
        ADD_FAILURE() << "block " << rec.id << " reads past the pool";
        break;
      }
      EXPECT_EQ(payload[k]->id(), pool.tx(c + k)->id()) << "block " << rec.id << " tx " << k;
    }
    if (rec.block->type() == chain::BlockType::kMicro)
      micro_children[{parent, rec.miner}].push_back(rec.id);
  }
  std::size_t pairs = 0;
  for (const auto& [key, children] : micro_children) {
    if (children.size() < 2) continue;
    const std::uint64_t c = g.facts(key.first).chain_tx_count;
    for (const BlockId child : children) {
      const std::vector<chain::TxPtr> payload = payload_of(*g.facts(child).block);
      if (payload.empty()) {
        ADD_FAILURE() << "forked block " << child << " carries no payload";
        continue;
      }
      EXPECT_EQ(payload.front()->id(), pool.tx(c)->id()) << "block " << child;
    }
    ++pairs;
  }
  return pairs;
}

TEST(SharedWorkload, EveryBlockCarriesThePoolSliceAfterItsParent) {
  for (const chain::Protocol protocol :
       {chain::Protocol::kBitcoin, chain::Protocol::kGhost, chain::Protocol::kBitcoinNG}) {
    SCOPED_TRACE(static_cast<int>(protocol));
    ExperimentConfig cfg = small_config(11);
    cfg.params.protocol = protocol;
    cfg.params.block_interval = 4.0;  // short enough for some forks
    cfg.params.microblock_interval = 1.0;
    cfg.params.max_microblock_size = 4000;
    cfg.num_nodes = 20;
    cfg.target_blocks = 15;
    Experiment exp(cfg);
    exp.run();
    ASSERT_GT(exp.global_tree().best().chain_tx_count, 0u);
    EXPECT_EQ(expect_pool_slices(exp), 0u);
  }

  // An equivocating leader forks microblocks from a parent it saved before
  // its tip moved: both siblings spend the same pool transactions.
  ExperimentConfig cfg = small_config(5);
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 15;
  cfg.params.microblock_interval = 3;
  cfg.params.max_microblock_size = 4000;
  cfg.num_nodes = 16;
  cfg.target_blocks = 40;
  cfg.adversary.kind = AdversarySpec::Kind::kEquivocate;
  cfg.adversary.power_share = 0.3;
  cfg.adversary.equivocate_every = 1;
  Experiment exp(cfg);
  exp.run();
  EXPECT_GT(expect_pool_slices(exp), 0u);
}

}  // namespace
}  // namespace bng::sim
