#include "sim/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bitcoin/bitcoin_node.hpp"
#include "bitcoin/selfish_miner.hpp"
#include "ghost/ghost_node.hpp"
#include "ng/malicious_leader.hpp"
#include "ng/ng_node.hpp"
#include "obs/trace_ring.hpp"
#include "sim/miner_distribution.hpp"

namespace bng::sim {

namespace {
/// Hard cap on synthetic pool size to bound memory (≈ 300 MB of txs).
constexpr std::size_t kMaxPoolSize = 400'000;

/// Generate genesis + tx pool for `cfg`. Deterministic and seed-independent:
/// the pool depends only on the deployment/workload parameters.
PrebuiltWorkload generate_workload(const ExperimentConfig& cfg) {
  std::size_t pool = cfg.pool_size;
  if (pool == 0) {
    // Auto-size: enough transactions to fill every counted block twice over.
    const std::size_t per_block =
        (cfg.params.protocol == chain::Protocol::kBitcoinNG ? cfg.params.max_microblock_size
                                                            : cfg.params.max_block_size) /
        std::max<std::size_t>(cfg.tx_size, 1);
    pool = 2 * static_cast<std::size_t>(cfg.target_blocks) * std::max<std::size_t>(per_block, 1) +
           1000;
  }
  pool = std::min(pool, kMaxPoolSize);

  PrebuiltWorkload out;
  out.genesis = chain::make_genesis(pool, kCoin);
  const Hash256 genesis_txid = out.genesis->txs()[0]->id();

  // Determine padding so that every tx hits exactly cfg.tx_size on the wire.
  auto probe = chain::make_transfer(chain::Outpoint{genesis_txid, 0}, kCoin - cfg.tx_fee,
                                    chain::address_from_tag(0), cfg.tx_fee, 0);
  const std::size_t base_size = probe->wire_size();
  const std::uint32_t padding =
      cfg.tx_size > base_size ? static_cast<std::uint32_t>(cfg.tx_size - base_size) : 0;

  out.workload.txs.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    out.workload.txs.push_back(chain::make_transfer(
        chain::Outpoint{genesis_txid, static_cast<std::uint32_t>(i)}, kCoin - cfg.tx_fee,
        chain::address_from_tag(i + 1'000'000), cfg.tx_fee, padding));
  }
  out.workload.tx_wire_size =
      out.workload.txs.empty() ? cfg.tx_size : out.workload.txs[0]->wire_size();
  out.workload.fee_per_tx = cfg.tx_fee;
  return out;
}

/// Checks that fail before any work, including a shared pool's: an NG
/// leader schedules its next microblock this far ahead, so at zero sim time
/// never advances.
void check_config(const ExperimentConfig& cfg) {
  if (cfg.params.protocol == chain::Protocol::kBitcoinNG &&
      !(cfg.params.microblock_interval > 0))
    throw std::invalid_argument("Experiment: Bitcoin-NG needs microblock_interval > 0");
}
}  // namespace

std::shared_ptr<const PrebuiltWorkload> build_shared_workload(const ExperimentConfig& cfg) {
  check_config(cfg);
  auto shared = std::make_shared<PrebuiltWorkload>(generate_workload(cfg));
  // Warm the lazy per-tx caches while the pool is still owned by one thread:
  // Transaction::id()/wire_size() write plain mutable fields on first use,
  // which would be a data race if first computed by concurrent experiments.
  for (const auto& tx : shared->workload.txs) {
    (void)tx->id();
    (void)tx->wire_size();
  }
  return shared;
}

namespace {

/// FNV-1a accumulator. Local to keep sim free of a runner dependency; the
/// constants match runner/digest.hpp, but the two streams never mix.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void latency(const std::optional<net::LatencyModel>& m) {
    u64(m.has_value() ? 1 : 0);
    if (!m) return;
    u64(m->buckets().size());
    for (const net::LatencyBucket& b : m->buckets()) {
      f64(b.lo);
      f64(b.hi);
      f64(b.weight);
    }
  }
};

}  // namespace

std::uint64_t workload_digest(const ExperimentConfig& cfg) {
  Fnv fnv;
  // Exactly generate_workload()'s inputs: the protocol only matters through
  // the counted-block size, so e.g. bitcoin and ghost points share one pool.
  const std::size_t counted = cfg.params.protocol == chain::Protocol::kBitcoinNG
                                  ? cfg.params.max_microblock_size
                                  : cfg.params.max_block_size;
  fnv.u64(counted);
  fnv.u64(cfg.tx_size);
  fnv.u64(static_cast<std::uint64_t>(cfg.tx_fee));
  fnv.u64(cfg.pool_size);
  fnv.u64(cfg.target_blocks);
  return fnv.h;
}

std::uint64_t config_digest(const ExperimentConfig& cfg) {
  Fnv fnv;
  // Consensus parameters.
  const chain::Params& p = cfg.params;
  fnv.u64(static_cast<std::uint64_t>(p.protocol));
  fnv.f64(p.block_interval);
  fnv.u64(p.retarget_interval);
  fnv.f64(p.retarget_clamp);
  fnv.f64(p.microblock_interval);
  fnv.f64(p.min_microblock_interval);
  fnv.u64(p.max_microblock_size);
  fnv.u64(p.max_block_size);
  fnv.u64(static_cast<std::uint64_t>(p.block_subsidy));
  fnv.f64(p.leader_fee_fraction);
  fnv.f64(p.poison_reward_fraction);
  fnv.u64(p.coinbase_maturity);
  fnv.u64(static_cast<std::uint64_t>(p.tie_break));
  fnv.f64(p.tie_switch_prob);
  // Deployment.
  fnv.u64(cfg.num_nodes);
  fnv.u64(cfg.min_degree);
  fnv.f64(cfg.link.bandwidth_bps);
  fnv.u64(cfg.link.per_message_overhead_bytes);
  fnv.latency(cfg.latency);
  fnv.u64(cfg.clusters);
  fnv.u64(cfg.cluster_trunks);
  fnv.latency(cfg.intra_latency);
  // Workload + stop condition.
  fnv.u64(cfg.tx_size);
  fnv.u64(static_cast<std::uint64_t>(cfg.tx_fee));
  fnv.u64(cfg.pool_size);
  fnv.u64(cfg.target_blocks);
  fnv.f64(cfg.drain_time);
  // Node model.
  fnv.f64(cfg.verify_fixed);
  fnv.f64(cfg.verify_bytes_per_second);
  fnv.u64(cfg.verify_signatures ? 1 : 0);
  fnv.u64(static_cast<std::uint64_t>(cfg.workload_mode));
  // Mining population.
  fnv.f64(cfg.power_exponent);
  fnv.u64(cfg.custom_powers.has_value() ? 1 : 0);
  if (cfg.custom_powers) {
    fnv.u64(cfg.custom_powers->size());
    for (double w : *cfg.custom_powers) fnv.f64(w);
  }
  fnv.u64(cfg.retarget.has_value() ? 1 : 0);
  if (cfg.retarget) {
    fnv.u64(cfg.retarget->interval_blocks);
    fnv.f64(cfg.retarget->target_spacing);
    fnv.f64(cfg.retarget->clamp);
  }
  // Adversary.
  fnv.u64(static_cast<std::uint64_t>(cfg.adversary.kind));
  fnv.u64(cfg.adversary.node);
  fnv.f64(cfg.adversary.power_share);
  fnv.f64(cfg.adversary.gamma);
  fnv.u64(cfg.adversary.equivocate_every);
  // Faults.
  fnv.u64(cfg.faults.partitions.size());
  for (const auto& f : cfg.faults.partitions) {
    fnv.f64(f.at);
    fnv.f64(f.heal_at);
    fnv.u64(f.group.size());
    for (NodeId n : f.group) fnv.u64(n);
  }
  fnv.u64(cfg.faults.link_delays.size());
  for (const auto& f : cfg.faults.link_delays) {
    fnv.f64(f.at);
    fnv.f64(f.until);
    fnv.u64(f.a);
    fnv.u64(f.b);
    fnv.f64(f.extra);
  }
  fnv.u64(cfg.faults.eclipses.size());
  for (const auto& f : cfg.faults.eclipses) {
    fnv.f64(f.at);
    fnv.f64(f.heal_at);
    fnv.u64(f.node);
  }
  // Churn.
  fnv.u64(cfg.churn.size());
  for (const auto& c : cfg.churn) {
    fnv.f64(c.at);
    fnv.u64(c.node);
    fnv.u64(c.online ? 1 : 0);
  }
  // Deliberately excluded: seed (part of the cache key), trace /
  // shared_workload (bit-identical no-ops on the record), node_factory
  // (gates cacheability instead, see config_cacheable).
  return fnv.h;
}

bool config_cacheable(const ExperimentConfig& cfg) { return cfg.node_factory == nullptr; }

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)), master_rng_(cfg_.seed) {}

Experiment::~Experiment() = default;

void Experiment::build_workload() {
  if (cfg_.shared_workload) {
    genesis_ = cfg_.shared_workload->genesis;
    return;
  }
  PrebuiltWorkload generated = generate_workload(cfg_);
  genesis_ = std::move(generated.genesis);
  workload_ = std::move(generated.workload);
}

void Experiment::build_nodes() {
  Rng topo_rng = master_rng_.fork(1);
  Rng latency_rng = master_rng_.fork(2);
  Rng sched_rng = master_rng_.fork(3);

  const bool clustered = cfg_.clusters >= 2;
  net::Topology topology =
      clustered ? net::Topology::clustered(cfg_.num_nodes, cfg_.clusters, cfg_.min_degree,
                                           cfg_.cluster_trunks, topo_rng)
                : net::Topology::random(cfg_.num_nodes, cfg_.min_degree, topo_rng);
  const net::LatencyModel latency =
      cfg_.latency ? *cfg_.latency : net::LatencyModel::default_internet();
  const net::LatencyModel intra =
      cfg_.intra_latency ? *cfg_.intra_latency : net::LatencyModel::intra_cluster();
  network_ = std::make_unique<net::Network>(queue_, topology, latency, cfg_.link,
                                            latency_rng, clustered ? &intra : nullptr);

  // Share the deployment-wide store so global-tree and node-tree ids and
  // chain facts agree.
  trace_ = std::make_unique<TraceRecorder>(genesis_, network_->block_store());
  if (cfg_.trace != nullptr) {
    cfg_.trace->set_clock([this] { return queue_.now(); });
    trace_->set_ring(cfg_.trace);
  }

  const AdversarySpec& adv = cfg_.adversary;
  if (adv.active() && adv.node >= cfg_.num_nodes)
    throw std::invalid_argument("Experiment: adversary node out of range");
  if ((adv.kind == AdversarySpec::Kind::kEquivocate ||
       adv.kind == AdversarySpec::Kind::kWithholdMicro) &&
      cfg_.params.protocol != chain::Protocol::kBitcoinNG)
    throw std::invalid_argument("Experiment: leader attacks require Bitcoin-NG");

  if (cfg_.custom_powers) {
    powers_ = *cfg_.custom_powers;
  } else if (adv.active() && adv.power_share > 0) {
    // Flat honest population with the attacker holding alpha: the shape the
    // selfish-mining analysis assumes, and what the old ablation built by
    // hand through custom_powers.
    powers_.assign(cfg_.num_nodes,
                   (1.0 - adv.power_share) / std::max(cfg_.num_nodes - 1, 1u));
    powers_[adv.node] = adv.power_share;
  } else {
    powers_ = exponential_powers(cfg_.num_nodes, cfg_.power_exponent);
  }
  if (powers_.size() != cfg_.num_nodes)
    throw std::invalid_argument("Experiment: powers size != num_nodes");

  nodes_.clear();
  nodes_.reserve(cfg_.num_nodes);
  for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
    protocol::NodeConfig ncfg;
    ncfg.params = cfg_.params;
    ncfg.mining_power = powers_[i];
    ncfg.verify_fixed = cfg_.verify_fixed;
    ncfg.verify_bytes_per_second = cfg_.verify_bytes_per_second;
    ncfg.verify_signatures = cfg_.verify_signatures;
    ncfg.workload_mode = cfg_.workload_mode;
    ncfg.workload = &workload();
    ncfg.trace = cfg_.trace;
    // Gamma: honest nodes adopt the attacker's equal-work branch with this
    // probability on a tie (the adversary's own tie-break is forced to
    // first-seen by selfish_config, so only honest nodes see it).
    if (adv.active()) ncfg.params.tie_switch_prob = adv.gamma;
    Rng node_rng = master_rng_.fork(1000 + i);
    std::unique_ptr<protocol::BaseNode> node;
    if (cfg_.node_factory)
      node = cfg_.node_factory(i, *network_, genesis_, ncfg, node_rng, trace_.get());
    if (node == nullptr && adv.active() && i == adv.node)
      node = make_adversary(i, ncfg, node_rng);
    if (node == nullptr) switch (cfg_.params.protocol) {
      case chain::Protocol::kBitcoin:
        node = std::make_unique<bitcoin::BitcoinNode>(i, *network_, genesis_, ncfg, node_rng,
                                                      trace_.get());
        break;
      case chain::Protocol::kBitcoinNG:
        node = std::make_unique<ng::NgNode>(i, *network_, genesis_, ncfg, node_rng,
                                            trace_.get());
        break;
      case chain::Protocol::kGhost:
        node = std::make_unique<ghost::GhostNode>(i, *network_, genesis_, ncfg, node_rng,
                                                  trace_.get());
        break;
    }
    network_->attach(i, node.get());
    nodes_.push_back(std::move(node));
  }

  std::vector<protocol::BaseNode*> miners;
  miners.reserve(nodes_.size());
  for (auto& n : nodes_) miners.push_back(n.get());
  scheduler_ = std::make_unique<MiningScheduler>(queue_, std::move(miners), powers_,
                                                 cfg_.params.block_interval, sched_rng);
  if (cfg_.retarget) scheduler_->enable_difficulty(*cfg_.retarget);

  // In full-mempool mode every node starts with the identical pool.
  if (cfg_.workload_mode == protocol::WorkloadMode::kFullMempool) {
    for (auto& n : nodes_)
      for (const auto& tx : workload().txs) n->submit_transaction(tx);
  }
}

std::unique_ptr<protocol::BaseNode> Experiment::make_adversary(
    NodeId id, const protocol::NodeConfig& ncfg, Rng& node_rng) {
  using Kind = AdversarySpec::Kind;
  switch (cfg_.adversary.kind) {
    case Kind::kSelfish:
    case Kind::kStubborn: {
      const auto mode = cfg_.adversary.kind == Kind::kStubborn
                            ? protocol::WithholdingStrategy::Mode::kLeadStubborn
                            : protocol::WithholdingStrategy::Mode::kSm1;
      switch (cfg_.params.protocol) {
        case chain::Protocol::kBitcoin:
          return std::make_unique<bitcoin::SelfishMiner>(id, *network_, genesis_, ncfg,
                                                         node_rng, trace_.get(), mode);
        case chain::Protocol::kBitcoinNG:
          return std::make_unique<ng::SelfishNgMiner>(id, *network_, genesis_, ncfg,
                                                      node_rng, trace_.get(), mode);
        case chain::Protocol::kGhost:
          return std::make_unique<ghost::SelfishGhostMiner>(id, *network_, genesis_, ncfg,
                                                            node_rng, trace_.get(), mode);
      }
      break;
    }
    case Kind::kEquivocate:
      return std::make_unique<ng::MaliciousLeader>(
          id, *network_, genesis_, ncfg, node_rng, trace_.get(),
          ng::MaliciousLeader::Mode::kEquivocate, cfg_.adversary.equivocate_every);
    case Kind::kWithholdMicro:
      return std::make_unique<ng::MaliciousLeader>(
          id, *network_, genesis_, ncfg, node_rng, trace_.get(),
          ng::MaliciousLeader::Mode::kWithholdMicroblocks);
    case Kind::kNone:
      break;
  }
  return nullptr;
}

void Experiment::build() {
  if (built_) return;
  built_ = true;
  check_config(cfg_);
  build_workload();
  build_nodes();
  for (const auto& event : cfg_.churn) {
    if (event.node >= cfg_.num_nodes)
      throw std::invalid_argument("Experiment: churn event for unknown node");
    queue_.schedule_at(event.at, [this, event] {
      network_->set_offline(event.node, !event.online);
    });
  }
  net::schedule_faults(*network_, cfg_.faults);
}

std::uint64_t Experiment::counted_blocks() const {
  return cfg_.params.protocol == chain::Protocol::kBitcoinNG ? trace_->micro_blocks()
                                                             : trace_->pow_blocks();
}

void Experiment::run() {
  build();
  scheduler_->start();

  // Run until the counted-block target is reached, in bounded steps so the
  // stop condition is re-evaluated as the run progresses.
  const Seconds step = std::max<Seconds>(cfg_.params.block_interval / 4, 1.0);
  // Generous safety horizon: 10000 x the expected run length.
  const Seconds horizon =
      10000.0 * cfg_.params.block_interval * std::max<std::uint32_t>(cfg_.target_blocks, 1);
  while (counted_blocks() < cfg_.target_blocks) {
    if (queue_.now() > horizon)
      throw std::runtime_error("Experiment: stop condition never reached");
    queue_.run_until(queue_.now() + step);
  }
  scheduler_->stop();
  end_time_ = queue_.now() + cfg_.drain_time;
  queue_.run_until(end_time_);
}

}  // namespace bng::sim
