// Mining-power churn demo (paper §5.2, "Resilience to Mining Power
// Variation").
//
// An alt-coin's difficulty is tuned to its current hash rate; when miners
// flee to a more profitable chain, blocks crawl until the next retarget.
// In Bitcoin that freezes transaction processing; in Bitcoin-NG the current
// leader keeps emitting microblocks at an unchanged cadence, so the ledger
// keeps moving even while leader elections stall.
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/miner_distribution.hpp"

namespace {

void run(bng::chain::Protocol protocol) {
  using namespace bng;
  const bool is_ng = protocol == chain::Protocol::kBitcoinNG;

  sim::ExperimentConfig cfg;
  cfg.params = is_ng ? chain::Params::bitcoin_ng() : chain::Params::bitcoin();
  cfg.params.block_interval = 30;
  cfg.params.microblock_interval = 5;
  cfg.params.max_block_size = 8000;
  cfg.params.max_microblock_size = 8000;
  cfg.num_nodes = 100;
  cfg.target_blocks = 1'000'000;  // stop by simulated time below
  cfg.retarget = chain::RetargetRule{40, 30.0, 4.0};
  cfg.seed = 5;

  sim::Experiment exp(cfg);
  exp.build();
  exp.scheduler().start();

  std::printf("--- %s ---\n", is_ng ? "bitcoin-ng" : "bitcoin");
  std::printf("%8s %12s %12s %14s %12s\n", "t[s]", "difficulty", "PoW blocks",
              "txs committed", "tx/min(win)");

  std::uint64_t last_tx = 0;
  const Seconds window = 600;
  for (int tick = 1; tick <= 6; ++tick) {
    exp.queue().run_until(tick * window);
    if (tick == 3) {
      // 90% of the hash rate leaves for a more profitable coin.
      const auto& powers = exp.powers();
      for (std::uint32_t i = 0; i < cfg.num_nodes; ++i)
        exp.scheduler().set_power(i, powers[i] * 0.1);
      std::printf("%8s  ============ 90%% OF MINING POWER LEAVES ============\n", "");
    }
    const auto txs = exp.global_tree().best().chain_tx_count;
    std::printf("%8.0f %12.1f %12llu %14llu %12.1f\n", exp.queue().now(),
                exp.scheduler().current_difficulty(),
                static_cast<unsigned long long>(exp.trace().pow_blocks()),
                static_cast<unsigned long long>(txs),
                static_cast<double>(txs - last_tx) / (window / 60.0));
    last_tx = txs;
  }
  exp.scheduler().stop();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("difficulty retargets every 40 blocks; power drops 90%% at t=1800s\n\n");
  run(bng::chain::Protocol::kBitcoin);
  run(bng::chain::Protocol::kBitcoinNG);
  std::printf(
      "takeaway (§5.2): after the drop both chains elect leaders ~10x slower\n"
      "until retargets recover, but Bitcoin-NG's committed-transaction rate\n"
      "barely moves because microblocks are difficulty-independent.\n");
  return 0;
}
