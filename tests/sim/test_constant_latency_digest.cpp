// Golden digests of constant-latency runs.
//
// With every link at the same delay, exact time ties between events are
// everywhere, and the event queue's (time, seq) order alone decides which
// node hears what first. The scenario goldens (test_sweep.cpp) draw
// continuous latencies, where ties almost never happen, so they cannot
// catch an ordering change that only shows on a tie. These runs can: each
// digest hashes every node's acceptance order, arrival times and tip
// history. Values were recorded before the dead-inv delivery skip
// (net::Network::send_ignored) existed, so they pin that it keeps the exact
// event order. Machines whose libm differs may opt out with
// BNG_SKIP_GOLDEN_DIGEST=1, like the other golden tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "runner/digest.hpp"
#include "sim/experiment.hpp"

namespace bng {
namespace {

using chain::Protocol;

struct TieCase {
  Protocol protocol;
  Seconds latency;
  std::uint64_t seed;
  std::uint64_t digest;
};

sim::ExperimentConfig tie_config(const TieCase& c) {
  sim::ExperimentConfig cfg;
  cfg.params = c.protocol == Protocol::kBitcoinNG ? chain::Params::bitcoin_ng()
                                                  : chain::Params::bitcoin();
  cfg.params.protocol = c.protocol;
  if (c.protocol == Protocol::kBitcoinNG) {
    cfg.params.block_interval = 20.0;
    cfg.params.microblock_interval = 1.0;
    cfg.params.max_microblock_size = 2000;
  } else {
    cfg.params.block_interval = 5.0;
    cfg.params.max_block_size = 2000;
  }
  cfg.num_nodes = 150;
  cfg.target_blocks = 15;
  cfg.drain_time = 10;
  cfg.latency = net::LatencyModel::constant(c.latency);
  cfg.seed = c.seed;
  return cfg;
}

std::uint64_t run_digest(const sim::ExperimentConfig& cfg) {
  sim::Experiment exp(cfg);
  exp.run();
  runner::Digest d;
  for (const auto& node : exp.nodes()) {
    const chain::BlockTree& t = node->tree();
    for (const BlockId id : t.accepted()) {
      const Hash256 h = t.facts(id).block->id();
      d.bytes(h.bytes.data(), h.bytes.size());
      d.f64(t.received(id));
    }
    for (const chain::BlockTree::TipChange& c : t.tip_history()) {
      const Hash256 h = t.facts(c.tip).block->id();
      d.f64(c.at);
      d.bytes(h.bytes.data(), h.bytes.size());
    }
  }
  return d.h;
}

constexpr TieCase kCases[] = {
    {Protocol::kBitcoin, 0.05, 1, 0x400493fe898d7470ull},
    {Protocol::kBitcoin, 0.05, 2, 0x3211704674ceb7dbull},
    {Protocol::kBitcoin, 0.05, 3, 0xc4a3aef401f0bd3bull},
    {Protocol::kBitcoin, 0.05, 4, 0x9097b743f58c1988ull},
    {Protocol::kBitcoin, 0.05, 5, 0x9ea9deb8725abde9ull},
    {Protocol::kBitcoin, 0.2, 1, 0xd3d64aa6492857acull},
    {Protocol::kBitcoin, 0.2, 2, 0x6136b3a003e20bb3ull},
    {Protocol::kBitcoin, 0.2, 3, 0x7d2e69850dcb9f43ull},
    {Protocol::kBitcoin, 0.2, 4, 0xb37d9a9d9f11cd38ull},
    {Protocol::kBitcoin, 0.2, 5, 0x514abdf40d871863ull},
    {Protocol::kBitcoinNG, 0.05, 1, 0x1e30358d86a423dbull},
    {Protocol::kBitcoinNG, 0.05, 2, 0x31ce5b8aee2aa833ull},
    {Protocol::kBitcoinNG, 0.05, 3, 0xa64366a3cbe1a313ull},
    {Protocol::kBitcoinNG, 0.05, 4, 0x7a63cacde9db68feull},
    {Protocol::kBitcoinNG, 0.05, 5, 0xab305be11abd075cull},
    {Protocol::kBitcoinNG, 0.2, 1, 0xfc58d9d250c45194ull},
    {Protocol::kBitcoinNG, 0.2, 2, 0x1946208bd7984b1bull},
    {Protocol::kBitcoinNG, 0.2, 3, 0x252c7c25ff96135full},
    {Protocol::kBitcoinNG, 0.2, 4, 0xb7316727ebadf57cull},
    {Protocol::kBitcoinNG, 0.2, 5, 0x19231cacf9f9efc8ull},
    {Protocol::kGhost, 0.05, 1, 0xbccdf49642ec68a0ull},
    {Protocol::kGhost, 0.05, 2, 0xc7c3a8dedf26d5f6ull},
    {Protocol::kGhost, 0.05, 3, 0xc504748abd42a0c5ull},
    {Protocol::kGhost, 0.05, 4, 0xb117355420d1d98full},
    {Protocol::kGhost, 0.05, 5, 0x950eca63632c46d7ull},
    {Protocol::kGhost, 0.2, 1, 0x9be66725e83b43d5ull},
    {Protocol::kGhost, 0.2, 2, 0xb3bd7e4480cd27a9ull},
    {Protocol::kGhost, 0.2, 3, 0xfa20194e68e2aaf7ull},
    {Protocol::kGhost, 0.2, 4, 0xd712c60a058c53e6ull},
    {Protocol::kGhost, 0.2, 5, 0x08ce468e8c5245beull},
};

TEST(GoldenDigest, ConstantLatencyTiesKeepTheirOrder) {
  if (std::getenv("BNG_SKIP_GOLDEN_DIGEST") != nullptr)
    GTEST_SKIP() << "BNG_SKIP_GOLDEN_DIGEST set";
  for (const TieCase& c : kCases) {
    const std::uint64_t got = run_digest(tie_config(c));
    EXPECT_EQ(got, c.digest) << "protocol " << static_cast<int>(c.protocol) << " latency "
                             << c.latency << " seed " << c.seed << std::hex << ": got 0x"
                             << got << ", event order on ties changed (digest drift)";
  }
}

}  // namespace
}  // namespace bng
