// Malicious Bitcoin-NG leader (paper §4.5, §5.1).
//
// Two leader misbehaviours the protocol must contain:
//
//  * kEquivocate — while leading, periodically signs a second, conflicting
//    microblock extending the same predecessor ("splitting the brain of the
//    system"). Honest nodes that observe both siblings hold a fraud proof;
//    the next honest leader places a poison transaction that revokes this
//    leader's epoch revenue (§4.5) — the full detection → poison → revocation
//    pipeline runs end-to-end in a live simulation.
//
//  * kWithholdMicroblocks — while leading, builds microblocks but never
//    announces them: the transaction plane stalls for the epoch (a benign
//    crash has the same liveness effect, §5.2, but here the chain state
//    diverges until the next key block prunes the private microblocks).
#pragma once

#include "ng/ng_node.hpp"

namespace bng::ng {

class MaliciousLeader : public NgNode {
 public:
  enum class Mode {
    kEquivocate,
    kWithholdMicroblocks,
  };

  MaliciousLeader(NodeId id, net::Network& net, chain::BlockPtr genesis,
                  protocol::NodeConfig cfg, Rng rng, protocol::IBlockObserver* observer,
                  Mode mode, std::uint32_t equivocate_every = 4);

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t equivocations() const { return equivocations_; }
  /// kWithholdMicroblocks: led ticks whose microblock was never produced.
  [[nodiscard]] std::uint64_t microblocks_withheld() const { return microblocks_withheld_; }

 protected:
  /// kEquivocate: after the regular microblock, every `equivocate_every`-th
  /// tick forges a conflicting sibling of it (same parent, salted nonce).
  void microblock_tick() override;

  /// kWithholdMicroblocks: own microblocks are never announced; everything
  /// else follows base policy.
  [[nodiscard]] bool should_relay(BlockId id) const override;

 private:
  Mode mode_;
  std::uint32_t equivocate_every_;
  std::uint32_t ticks_led_ = 0;
  std::uint64_t equivocations_ = 0;
  std::uint64_t microblocks_withheld_ = 0;
};

}  // namespace bng::ng
