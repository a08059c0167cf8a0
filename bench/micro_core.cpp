// Micro-benchmarks (google-benchmark) for the primitives underpinning the
// simulation: hashing, Merkle trees, ECDSA, the event queue, the network
// fast path, fork choice, mempool assembly, the tx-pool build, and the
// consensus-delay metric.
// These bound how far the experiment harness scales.
//
// Machine-readable output: pass --benchmark_format=json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/block_tree.hpp"
#include "chain/mempool.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "metrics/metrics.hpp"
#include "net/event_queue.hpp"
#include "net/fault_plan.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/registry.hpp"
#include "obs/trace_ring.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace bng;

/// Inv-sized message with no payload logic.
constexpr net::Message kBenchMessage{1, 0, 36};

/// Node that just counts deliveries.
struct BenchSink final : net::INode {
  std::uint64_t received = 0;
  void on_message(NodeId, const net::Message&) override { ++received; }
};

/// Deterministic 64-bit LCG (Knuth constants) for benchmark workloads.
std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

/// Export every metric of an obs::Registry snapshot as a google-benchmark
/// counter, so benchmark-side accounting goes through the same typed
/// registry as the sweep records (registration order and names are the
/// schema).
void export_registry(benchmark::State& state, const obs::Registry& reg) {
  for (const auto& [name, value] : reg.snapshot()) state.counters[name] = value;
}

/// Registers `fn` like BENCHMARK(fn) does, for a benchmark whose time is
/// mostly SHA-256 compression, under a name that says which kernel it timed:
/// `base` on the portable kernel, the one the committed trend baselines were
/// recorded with, and e.g. `base/sha-ni` otherwise, so the trend gate never
/// holds one kernel's timing against the other's baseline.
benchmark::internal::Benchmark* register_hashing(const char* base,
                                                 void (*fn)(benchmark::State&)) {
  std::string name = base;
  if (const auto kernel = crypto::sha256_kernel(); kernel != crypto::Sha256Kernel::kPortable)
    name += std::string("/") + crypto::sha256_kernel_name(kernel);
  return benchmark::RegisterBenchmark(name.c_str(), fn);
}

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
[[maybe_unused]] auto* const kSha256 =
    register_hashing("BM_Sha256", BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256d(benchmark::State& state) {
  std::vector<std::uint8_t> data(80, 0x11);  // block-header sized
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256d(data));
}
[[maybe_unused]] auto* const kSha256d = register_hashing("BM_Sha256d", BM_Sha256d);

void BM_Sha256Portable(benchmark::State& state) {
  // The fallback kernel, timed on its own: on a CPU with the SHA extensions
  // BM_Sha256/sha-ni times the SHA-NI kernel instead.
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    crypto::Sha256 h(crypto::Sha256Kernel::kPortable);
    benchmark::DoNotOptimize(h.update(data).finalize());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(1024);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i)
    leaves.push_back(crypto::sha256(std::string("tx") + std::to_string(i)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::merkle_root(leaves));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
[[maybe_unused]] auto* const kMerkleRoot =
    register_hashing("BM_MerkleRoot", BM_MerkleRoot)->Arg(100)->Arg(2000);

crypto::U256 random_scalar(Rng& rng) {
  return crypto::sc_reduce(crypto::U256(rng.next(), rng.next(), rng.next(), rng.next()));
}

void BM_ScalarMul(benchmark::State& state) {
  // Scalar (mod n) multiply, the inner operation of ECDSA signing.
  Rng rng(1);
  crypto::U256 a = random_scalar(rng);
  const crypto::U256 b = random_scalar(rng);
  for (auto _ : state) {
    a = crypto::sc_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarMul);

/// 4,096 values from `rng`, cycled through by the benchmarks of
/// variable-time code: one fixed input would let the branch predictor learn
/// its path, which a job's fresh inputs never allow.
template <typename Make>
auto fresh_inputs(Make make) {
  std::vector<decltype(make())> inputs;
  while (inputs.size() < 4096) inputs.push_back(make());
  return inputs;
}

void BM_ScalarInverse(benchmark::State& state) {
  // One per signature (k^-1), on a fresh nonce each time.
  Rng rng(1);
  const auto inputs = fresh_inputs([&rng] {
    crypto::U256 a;
    while (a.is_zero()) a = random_scalar(rng);
    return a;
  });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sc_inv(inputs[i]));
    i = (i + 1) & (inputs.size() - 1);
  }
}
BENCHMARK(BM_ScalarInverse);

void BM_FieldInverse(benchmark::State& state) {
  // One per signature too: R's Z coordinate, to leave Jacobian coordinates.
  Rng rng(2);
  const auto inputs = fresh_inputs([&rng] {
    crypto::U256 a;
    while (a.is_zero() || a >= crypto::field_p())
      a = crypto::U256(rng.next(), rng.next(), rng.next(), rng.next());
    return a;
  });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::fe_inv(inputs[i]));
    i = (i + 1) & (inputs.size() - 1);
  }
}
BENCHMARK(BM_FieldInverse);

void BM_PublicKey(benchmark::State& state) {
  // Leader-key derivation, done once per NG node at deployment build, over
  // 4,096 keys. The first call builds the fixed-base table; it is kept out
  // of the timing.
  Rng rng(1);
  const auto keys = fresh_inputs([&rng] { return crypto::PrivateKey::generate(rng); });
  benchmark::DoNotOptimize(keys[0].public_key());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys[i].public_key());
    i = (i + 1) & (keys.size() - 1);
  }
}
BENCHMARK(BM_PublicKey);

void BM_EcdsaSign(benchmark::State& state) {
  // A leader signs each microblock header once: 4,096 distinct message
  // hashes, so every signature derives a fresh nonce.
  Rng rng(1);
  const auto sk = crypto::PrivateKey::generate(rng);
  std::uint64_t n = 0;
  const auto messages = fresh_inputs([&n] { return crypto::sha256(std::to_string(n++)); });
  benchmark::DoNotOptimize(sk.public_key());  // builds the fixed-base table
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(sk, messages[i]));
    i = (i + 1) & (messages.size() - 1);
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  Rng rng(1);
  auto sk = crypto::PrivateKey::generate(rng);
  auto pk = sk.public_key();
  auto msg = crypto::sha256("microblock header");
  auto sig = crypto::sign(sk, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::verify(pk, msg, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    net::EventQueue q;
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i)
      q.schedule_at(static_cast<double>((i * 2654435761u) % 100000), [&fired] { ++fired; });
    q.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueChurn)->Arg(10000);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Self-rescheduling working set: the shape of a live simulation.
  struct Ctx {
    net::EventQueue q;
    std::uint64_t lcg = 12345;
    std::uint64_t fired = 0;
  };
  struct Tick {
    Ctx* c;
    void operator()() const {
      ++c->fired;
      c->q.schedule_in(1.0 + static_cast<double>(lcg_next(c->lcg) >> 52), Tick{c});
    }
  };
  Ctx ctx;
  for (int i = 0; i < state.range(0); ++i) {
    ctx.q.schedule_at(static_cast<double>(lcg_next(ctx.lcg) >> 52), Tick{&ctx});
  }
  for (auto _ : state) {
    const std::uint64_t target = ctx.fired + 10000;
    while (ctx.fired < target) ctx.q.run_until(ctx.q.now() + 4096.0);
    benchmark::DoNotOptimize(ctx.fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(4096);

void BM_EventQueueBucketInsert(benchmark::State& state) {
  // The calendar layer's O(1) claim: inserts landing inside the active
  // bucket window (the overwhelmingly common case in a live simulation)
  // are one multiply + one vector push, no heap sift.
  net::EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t lcg = 99;
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) {
      // 10-bit delays scaled to ~1 s: all within the 2048-bucket window.
      q.schedule_in(static_cast<double>(lcg_next(lcg) >> 54) * 1e-3,
                    [&fired] { ++fired; });
    }
    q.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueBucketInsert)->Arg(4096);

void BM_EventQueueCancel(benchmark::State& state) {
  net::EventQueue q;
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(state.range(0)));
  double base = 10.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = q.schedule_at(base + static_cast<double>(i % 7), [] {});
    for (std::uint64_t id : ids) q.cancel(id);
    base += 10.0;
    // Drain the tombstones inside the measurement: keeps memory bounded
    // across framework-chosen iteration counts and charges the full
    // cancelled-event lifecycle to the metric.
    q.run_all();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancel)->Arg(4096);

void BM_NetworkGossipBurst(benchmark::State& state) {
  const auto n_nodes = static_cast<std::uint32_t>(state.range(0));
  Rng rng(42);
  net::EventQueue q;
  net::Topology topo = net::Topology::random(n_nodes, 5, rng);
  net::Network net(q, topo, net::LatencyModel::constant(0.05),
                   net::LinkParams{100'000.0, 40}, rng);
  std::vector<BenchSink> sinks(n_nodes);
  for (NodeId i = 0; i < n_nodes; ++i) net.attach(i, &sinks[i]);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const std::uint64_t before = net.messages_sent();
    for (NodeId a = 0; a < n_nodes; ++a) {
      for (NodeId b : net.peers(a)) net.send(a, b, kBenchMessage);
    }
    q.run_all();
    messages += net.messages_sent() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_NetworkGossipBurst)->Arg(200)->Arg(1000);

void BM_NetworkLinkTrainPending(benchmark::State& state) {
  // Witness for the per-link event-train design: burst-load every link of a
  // paper-style overlay with a deep message train and record the peak
  // pending-event count. With one scheduled event per busy link it tracks
  // active_links (O(links)); the per-message design it replaced would sit at
  // in_flight_msgs (O(links x train depth)).
  const auto n_nodes = static_cast<std::uint32_t>(state.range(0));
  const int per_link = static_cast<int>(state.range(1));
  double max_pending = 0;
  double max_in_flight = 0;
  double links = 0;
  for (auto _ : state) {
    Rng rng(42);
    net::EventQueue q;
    net::Topology topo = net::Topology::random(n_nodes, 5, rng);
    net::Network net(q, topo, net::LatencyModel::constant(0.05),
                     net::LinkParams{100'000.0, 40}, rng);
    std::vector<BenchSink> sinks(n_nodes);
    for (NodeId i = 0; i < n_nodes; ++i) net.attach(i, &sinks[i]);
    for (int r = 0; r < per_link; ++r)
      for (NodeId a = 0; a < n_nodes; ++a)
        for (NodeId b : net.peers(a)) net.send(a, b, kBenchMessage);
    max_pending = std::max(max_pending, static_cast<double>(q.pending()));
    max_in_flight = std::max(max_in_flight, static_cast<double>(net.messages_in_flight()));
    links = static_cast<double>(net.active_links());
    q.run_all();
  }
  // Benchmark-side accounting goes through the typed registry (obs/) — the
  // same schema machinery sweep records use; exported counter names are
  // unchanged.
  obs::Registry reg;
  reg.gauge("max_pending_events", obs::Unit::kCount,
            "peak event-queue size under the burst")
      .set(max_pending);
  reg.gauge("in_flight_msgs", obs::Unit::kCount, "peak messages in flight")
      .set(max_in_flight);
  reg.gauge("active_links", obs::Unit::kCount, "links carrying traffic").set(links);
  reg.gauge("pending_per_link", obs::Unit::kNone, "peak pending events per link")
      .set(links > 0 ? max_pending / links : 0);
  export_registry(state, reg);
}
BENCHMARK(BM_NetworkLinkTrainPending)->Args({200, 16})->Args({1000, 16});

void BM_NetworkBurstDrain(benchmark::State& state) {
  // A deep train on one link: the first send rides the idle-link direct
  // path, and once its delivery fires every queued message behind it should
  // drain in the same callback (nothing else is due). The counters pin both
  // fast paths — a change that silently disables either one shows up as a
  // hard zero here, not as a slow timing drift.
  const int train = static_cast<int>(state.range(0));
  Rng rng(42);
  net::EventQueue q;
  net::Topology topo = net::Topology::complete(2);
  net::Network net(q, topo, net::LatencyModel::constant(0.05),
                   net::LinkParams{100'000.0, 40}, rng);
  std::vector<BenchSink> sinks(2);
  for (NodeId i = 0; i < 2; ++i) net.attach(i, &sinks[i]);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < train; ++i) net.send(0, 1, kBenchMessage);
    q.run_all();
    delivered += static_cast<std::uint64_t>(train);
  }
  obs::Registry reg;
  reg.counter("direct_deliveries", obs::Unit::kCount,
              "deliveries that rode the idle-link direct path")
      .inc(net.direct_deliveries());
  reg.counter("burst_drained", obs::Unit::kCount,
              "messages delivered by a burst continuation, no scheduler pop")
      .inc(net.burst_drained());
  reg.gauge("fast_path_fraction", obs::Unit::kNone,
            "fraction of deliveries that bypassed the generic pop path")
      .set(delivered > 0 ? static_cast<double>(net.direct_deliveries() +
                                               net.burst_drained()) /
                               static_cast<double>(delivered)
                         : 0);
  export_registry(state, reg);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_NetworkBurstDrain)->Arg(256);

void BM_NetworkSendFaultLayerOverhead(benchmark::State& state) {
  // Witness for the fault layer's zero-cost guarantee: the same gossip burst
  // through a network with an EMPTY FaultPlan scheduled (arg 1) vs. no plan
  // at all (arg 0). Timings must match within noise, and the counters must
  // be bit-identical — `counter_mismatch` is asserted 0 so a regression
  // (an empty plan scheduling events or perturbing the send path) fails
  // loudly rather than drifting.
  const bool with_empty_plan = state.range(0) != 0;
  const std::uint32_t n_nodes = 200;
  Rng rng(42);
  net::EventQueue q;
  net::Topology topo = net::Topology::random(n_nodes, 5, rng);
  net::Network net(q, topo, net::LatencyModel::constant(0.05),
                   net::LinkParams{100'000.0, 40}, rng);
  std::vector<BenchSink> sinks(n_nodes);
  for (NodeId i = 0; i < n_nodes; ++i) net.attach(i, &sinks[i]);
  const std::size_t pending_before = q.pending();
  if (with_empty_plan) net::schedule_faults(net, net::FaultPlan{});
  double max_pending = 0;
  for (auto _ : state) {
    for (NodeId a = 0; a < n_nodes; ++a)
      for (NodeId b : net.peers(a)) net.send(a, b, kBenchMessage);
    max_pending = std::max(max_pending, static_cast<double>(q.pending()));
    q.run_all();
  }
  obs::Registry reg;
  reg.counter("scheduled_by_plan", obs::Unit::kCount,
              "events the empty FaultPlan scheduled (must be 0)")
      .inc(static_cast<std::uint64_t>(q.pending() - pending_before));
  reg.gauge("max_pending_events", obs::Unit::kCount,
            "peak event-queue size under the burst")
      .set(max_pending);
  reg.counter("messages_sent", obs::Unit::kCount, "messages through the send path")
      .inc(net.messages_sent());
  // An empty plan must add zero events; any residue is a bug.
  reg.gauge("counter_mismatch", obs::Unit::kNone,
            "1 when the fault layer perturbed the queue")
      .set(q.pending() == pending_before ? 0 : 1);
  export_registry(state, reg);
  if (q.pending() != pending_before) state.SkipWithError("empty FaultPlan scheduled events");
}
// Fixed iteration count so the two variants' counters (max_pending_events,
// messages_sent) are directly comparable in the emitted JSON.
BENCHMARK(BM_NetworkSendFaultLayerOverhead)->Arg(0)->Arg(1)->Iterations(64);

chain::BlockPtr bench_block(chain::BlockType type, const Hash256& prev, std::uint64_t salt) {
  chain::BlockHeader h;
  h.type = type;
  h.prev = prev;
  h.nonce = salt;
  return std::make_shared<chain::Block>(h, std::vector<chain::TxPtr>{}, 0);
}

void BM_BlockTreeInsertChain(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    chain::BlockTree tree(chain::make_genesis(1, kCoin), chain::TieBreak::kRandom,
                          chain::BlockTree::ForkChoice::kHeaviestChain, &rng);
    Hash256 prev = tree.facts(tree.genesis()).block->id();
    for (int i = 0; i < state.range(0); ++i) {
      auto block = bench_block(chain::BlockType::kPow, prev, static_cast<std::uint64_t>(i));
      prev = block->id();
      tree.insert(block, static_cast<double>(i), 1.0);
    }
    benchmark::DoNotOptimize(tree.best_tip());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockTreeInsertChain)->Arg(500);

void BM_BlockTreeForkChoiceGhost(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    chain::BlockTree tree(chain::make_genesis(1, kCoin), chain::TieBreak::kRandom,
                          chain::BlockTree::ForkChoice::kHeaviestSubtree, &rng);
    // Bushy tree: every block forks off a random existing block.
    std::vector<Hash256> ids{tree.facts(tree.genesis()).block->id()};
    for (int i = 0; i < state.range(0); ++i) {
      const Hash256& parent = ids[rng.next_below(ids.size())];
      auto block = bench_block(chain::BlockType::kPow, parent, static_cast<std::uint64_t>(i));
      ids.push_back(block->id());
      tree.insert(block, static_cast<double>(i), 1.0);
    }
    benchmark::DoNotOptimize(tree.best_tip());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockTreeForkChoiceGhost)->Arg(300);

void BM_MempoolAssemble(benchmark::State& state) {
  chain::Mempool pool;
  for (int i = 0; i < 20000; ++i) {
    chain::Outpoint op;
    op.vout = static_cast<std::uint32_t>(i);
    pool.submit(chain::make_transfer(op, 1000, chain::address_from_tag(i), 10, 300));
  }
  for (auto _ : state) benchmark::DoNotOptimize(pool.assemble(1'000'000));
}
BENCHMARK(BM_MempoolAssemble);

void BM_BuildSharedWorkload(benchmark::State& state) {
  // The tx-pool layer of a bitcoin_fig7 perfbench job (60 kB blocks, 30
  // counted blocks): genesis plus all 8,560 transfers, each serialized and
  // hashed once. A job builds only the transactions its blocks read; this
  // builds them all, so the trend line keeps the per-transaction cost.
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.max_block_size = 60'000;
  cfg.target_blocks = 30;
  cfg.pool_size = 8'560;
  for (auto _ : state) {
    const auto pool = sim::build_shared_workload(cfg);
    benchmark::DoNotOptimize(pool->workload.txs(0, pool->workload.size()).data());
  }
}
[[maybe_unused]] auto* const kBuildSharedWorkload =
    register_hashing("BM_BuildSharedWorkload", BM_BuildSharedWorkload);

void BM_TraceRingRecord(benchmark::State& state) {
  // The trace ring's two costs: the enabled record path (arg 1 — one bounds
  // write into the ring) and the disabled gate (arg 0 — the `wants()` load +
  // branch every traced call site pays when tracing is off; this is the
  // number the "--trace off is zero-overhead" claim rests on).
  const bool enabled = state.range(0) != 0;
  obs::TraceRing ring(enabled ? obs::kTraceBlocks : 0, 1u << 12);
  double t = 0;
  ring.set_clock([&t] { return t; });
  BlockId block = 0;
  for (auto _ : state) {
    t += 1.0;
    ++block;
    if (ring.wants(obs::kTraceBlocks))
      ring.record(obs::kTraceBlocks, obs::TraceKind::kAccept, 1, block, block - 1, 2);
    benchmark::DoNotOptimize(ring.size());
  }
  state.counters["recorded"] = static_cast<double>(ring.total_recorded());
  state.counters["dropped"] = static_cast<double>(ring.dropped());
}
BENCHMARK(BM_TraceRingRecord)->Arg(0)->Arg(1);

/// A finished `nodes`-node Bitcoin run (fork-prone 12 s blocks), built and
/// run once per node count and shared by every benchmark repetition.
const sim::Experiment& finished_bitcoin_run(std::uint32_t nodes) {
  static std::map<std::uint32_t, std::unique_ptr<sim::Experiment>> runs;
  std::unique_ptr<sim::Experiment>& exp = runs[nodes];
  if (!exp) {
    sim::ExperimentConfig cfg;
    cfg.params = chain::Params::bitcoin();
    cfg.params.block_interval = 12;
    cfg.params.max_block_size = 20'000;
    cfg.num_nodes = nodes;
    cfg.target_blocks = 20;
    cfg.seed = 7;
    exp = std::make_unique<sim::Experiment>(cfg);
    exp->run();
  }
  return *exp;
}

void BM_ConsensusDelay(benchmark::State& state) {
  // The metric layer's largest cost: the (eps,delta) consensus delay at the
  // paper's eps = delta = 0.9 over a finished run. Only the metric is timed.
  const sim::Experiment& exp = finished_bitcoin_run(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(metrics::consensus_delay(exp, 0.9, 0.9));
}
BENCHMARK(BM_ConsensusDelay)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
