// Experiment runner: builds a full emulated deployment (paper §7) and runs
// it to a block-count target.
//
// One Experiment = one data point in the paper's figures: a topology, a
// latency assignment, a miner population, pre-filled mempools, and a
// protocol (Bitcoin / Bitcoin-NG / GHOST) run for a set number of blocks.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "chain/params.hpp"
#include "net/fault_plan.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "protocol/base_node.hpp"
#include "sim/mining_scheduler.hpp"
#include "sim/trace.hpp"

namespace bng::obs {
class TraceRing;
}

namespace bng::sim {

/// Declarative adversary: which attack one node runs, how much mining power
/// it holds, and how the honest network splits on races. Replaces the
/// node_factory lambda for the common attack experiments (the lambda stays
/// as the escape hatch and takes precedence when both are set).
struct AdversarySpec {
  enum class Kind {
    kNone,
    /// SM1 block withholding (protocol::WithholdingStrategy): Bitcoin and
    /// GHOST blocks, or NG key blocks.
    kSelfish,
    /// Lead-stubborn withholding (WithholdingStrategy::Mode::kLeadStubborn):
    /// same hosts as kSelfish, but the attacker never takes SM1's safe
    /// lead-1 cash-out and keeps racing instead.
    kStubborn,
    /// NG only: the leader periodically signs conflicting microblocks
    /// (ng::MaliciousLeader), driving detection -> poison -> revocation.
    kEquivocate,
    /// NG only: the leader builds microblocks but never announces them.
    kWithholdMicro,
  };

  Kind kind = Kind::kNone;
  /// Which node is the adversary.
  NodeId node = 0;
  /// Attacker's share of total mining power (alpha). When > 0 and no
  /// custom_powers are given, the population becomes: attacker = alpha,
  /// every honest node = (1 - alpha) / (n - 1). <= 0 leaves the configured
  /// population untouched.
  double power_share = 0.25;
  /// Gamma: share of honest power mining the attacker's branch during a
  /// race. Applied as the honest nodes' tie_switch_prob — the probability
  /// of adopting the *later-arriving* equal-work branch. The attacker's
  /// matching block is published in reaction to the honest find, so it is
  /// the later arrival at almost every honest node and the knob tracks
  /// gamma closely; nodes topologically adjacent to the attacker may see
  /// the reverse order, so the 0 and 1 endpoints are exact only up to that
  /// positioning effect (which the classic gamma also bakes in). 0.5 ==
  /// the paper's unbiased random tie-breaking, order-independent.
  double gamma = 0.5;
  /// kEquivocate: forge a conflicting sibling every k-th led microblock.
  std::uint32_t equivocate_every = 4;

  [[nodiscard]] bool active() const { return kind != Kind::kNone; }
};

/// A fully generated synthetic workload (genesis block + tx pool) that can
/// be shared read-only between experiments. All seeds of a sweep point use
/// the same pool (ROADMAP "synthetic-workload memory"): the pool is a pure
/// function of the deployment parameters, not of the seed, and nodes never
/// mutate it, so one copy serves every run instead of hundreds of MB per
/// seed. Build with build_shared_workload(), which also pre-warms the lazy
/// tx-id/wire-size caches so the pool is safe to read from many threads.
struct PrebuiltWorkload {
  chain::BlockPtr genesis;
  protocol::SyntheticWorkload workload;
};

struct ExperimentConfig {
  chain::Params params;

  // --- Deployment (paper §7) ----------------------------------------------
  /// Paper: 1000 nodes (~15% of the then-operational Bitcoin network).
  std::uint32_t num_nodes = 1000;
  std::uint32_t min_degree = 5;
  net::LinkParams link;  ///< ~100 kbit/s pairwise
  std::optional<net::LatencyModel> latency;  ///< default: default_internet()

  // --- Clustered overlay (10k+-node scaling runs) ---------------------------
  /// >= 2: build Topology::clustered with this many region clusters; edges
  /// inside a cluster draw intra_latency, trunks draw `latency`. 0/1 (the
  /// default) keeps the paper's flat uniform graph — and its exact RNG draw
  /// sequence, so existing scenario digests are untouched.
  std::uint32_t clusters = 0;
  /// Trunk edges per adjacent cluster pair (and random chords) when
  /// clustered.
  std::uint32_t cluster_trunks = 8;
  std::optional<net::LatencyModel> intra_latency;  ///< default: intra_cluster()

  // --- Workload (paper §7 "No Transaction Propagation") --------------------
  std::size_t tx_size = 476;   ///< identical-size txs; ~3.5 tx/s at 1MB/600s
  Amount tx_fee = 10'000;
  /// Pool size; 0 = auto-sized from the stop target with ample slack.
  std::size_t pool_size = 0;

  // --- Stop condition (paper §8: "50-100 Bitcoin blocks or NG microblocks")
  std::uint32_t target_blocks = 60;
  Seconds drain_time = 120;  ///< extra time for the last blocks to settle

  // --- Node model -----------------------------------------------------------
  Seconds verify_fixed = 0.002;
  double verify_bytes_per_second = 25e6;
  bool verify_signatures = false;
  protocol::WorkloadMode workload_mode = protocol::WorkloadMode::kSynthetic;

  // --- Mining population -----------------------------------------------------
  /// Power of node i ∝ exp(power_exponent * (i+1)) — the paper's fit.
  double power_exponent = -0.27;
  /// Override the exponential population entirely.
  std::optional<std::vector<double>> custom_powers;
  /// Enable difficulty retargeting (churn experiments).
  std::optional<chain::RetargetRule> retarget;

  // --- Adversary & faults (attack experiments) ------------------------------
  /// Declarative adversary for the common attack shapes (selfish mining,
  /// NG equivocation / microblock withholding).
  AdversarySpec adversary;
  /// Scheduled network faults: timed partitions, link-delay windows,
  /// eclipses. Empty costs nothing (see net/fault_plan.hpp).
  net::FaultPlan faults;

  // --- Custom node types (escape hatch) -------------------------------------
  /// If set, called for every node id; return nullptr to fall back to the
  /// adversary spec / default node for `params.protocol`. Enables arbitrary
  /// mixed populations beyond what AdversarySpec expresses.
  std::function<std::unique_ptr<protocol::BaseNode>(
      NodeId, net::Network&, chain::BlockPtr, const protocol::NodeConfig&, Rng,
      protocol::IBlockObserver*)>
      node_factory;

  // --- Churn (paper §1: "robust to extreme churn") --------------------------
  struct ChurnEvent {
    Seconds at = 0;
    NodeId node = 0;
    bool online = true;  ///< false: drop all traffic to/from the node
  };
  /// Scheduled connectivity changes, applied during run().
  std::vector<ChurnEvent> churn;

  // --- Observability (escape hatch, like node_factory: non-owning, never
  // serialized) --------------------------------------------------------------
  /// When set, every node and adversary strategy records its block
  /// accept/withhold/poison decisions here (obs/trace_ring.hpp). Null (the
  /// default) costs one pointer test on the traced paths and nothing else;
  /// recording is purely observational, so the determinism digest is
  /// bit-identical either way.
  obs::TraceRing* trace = nullptr;

  // --- Workload sharing ------------------------------------------------------
  /// If set, use this pre-built pool instead of generating one. Must have
  /// been built from a config with identical workload parameters (protocol,
  /// sizes, tx_size, tx_fee, pool_size, target_blocks); the experiment only
  /// reads it, so one instance can back many concurrent experiments.
  std::shared_ptr<const PrebuiltWorkload> shared_workload;

  std::uint64_t seed = 1;
};

/// Generate the workload `cfg` would build, pre-warming every transaction's
/// lazily cached id and wire size (they are plain mutable fields, so first
/// use must not race across threads). Seed-independent. Throws
/// std::invalid_argument, before any work, for a config build() rejects up
/// front.
[[nodiscard]] std::shared_ptr<const PrebuiltWorkload> build_shared_workload(
    const ExperimentConfig& cfg);

/// FNV-1a digest over exactly the inputs generate_workload() reads (counted
/// block size for the protocol, tx_size, tx_fee, pool_size, target_blocks).
/// Two configs with equal digests build byte-identical PrebuiltWorkloads, so
/// executors key their shared-pool caches by this instead of by sweep point.
[[nodiscard]] std::uint64_t workload_digest(const ExperimentConfig& cfg);

/// FNV-1a digest over every field that changes what a run computes: params,
/// deployment, workload, stop condition, node model, mining population,
/// adversary, faults, churn. Excludes seed and the pure observation knobs
/// (trace, shared_workload), which are bit-identical no-ops on the record.
/// Together with the scenario-source hash and the seed this is the
/// record-cache key.
[[nodiscard]] std::uint64_t config_digest(const ExperimentConfig& cfg);

/// False when the config carries state config_digest() cannot see — today
/// that is only the node_factory escape hatch. Uncacheable configs always
/// run fresh.
[[nodiscard]] bool config_cacheable(const ExperimentConfig& cfg);

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);
  ~Experiment();

  /// Build the deployment without running (allows callbacks/attacks setup).
  /// Throws std::invalid_argument for a config it cannot run, e.g. Bitcoin-NG
  /// with microblock_interval <= 0 or an adversary node out of range.
  void build();

  /// Run to the stop condition. Implies build() if not yet built.
  void run();

  // --- Accessors -------------------------------------------------------------
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }
  [[nodiscard]] const TraceRecorder& trace() const { return *trace_; }
  [[nodiscard]] const chain::BlockTree& global_tree() const { return trace_->global_tree(); }
  [[nodiscard]] const std::vector<std::unique_ptr<protocol::BaseNode>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<double>& powers() const { return powers_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }
  [[nodiscard]] net::EventQueue& queue() { return queue_; }
  [[nodiscard]] MiningScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const protocol::SyntheticWorkload& workload() const {
    return cfg_.shared_workload ? cfg_.shared_workload->workload : workload_;
  }
  [[nodiscard]] Seconds end_time() const { return end_time_; }
  [[nodiscard]] chain::BlockPtr genesis() const { return genesis_; }

  /// Count of generated blocks matching the stop-condition type
  /// (Bitcoin/GHOST: PoW blocks; NG: microblocks).
  [[nodiscard]] std::uint64_t counted_blocks() const;

 private:
  void build_workload();
  void build_nodes();
  std::unique_ptr<protocol::BaseNode> make_adversary(NodeId id,
                                                     const protocol::NodeConfig& ncfg,
                                                     Rng& node_rng);

  ExperimentConfig cfg_;
  net::EventQueue queue_;
  Rng master_rng_;
  chain::BlockPtr genesis_;
  protocol::SyntheticWorkload workload_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MiningScheduler> scheduler_;
  std::vector<std::unique_ptr<protocol::BaseNode>> nodes_;
  std::vector<double> powers_;
  bool built_ = false;
  Seconds end_time_ = 0;
};

}  // namespace bng::sim
