#include "ng/malicious_leader.hpp"

namespace bng::ng {

MaliciousLeader::MaliciousLeader(NodeId id, net::Network& net, chain::BlockPtr genesis,
                                 protocol::NodeConfig cfg, Rng rng,
                                 protocol::IBlockObserver* observer, Mode mode,
                                 std::uint32_t equivocate_every)
    : NgNode(id, net, std::move(genesis), std::move(cfg), rng, observer),
      mode_(mode),
      equivocate_every_(equivocate_every == 0 ? 1 : equivocate_every) {}

void MaliciousLeader::microblock_tick() {
  if (mode_ == Mode::kWithholdMicroblocks) {
    // Emit nothing while leading: the transaction plane starves for the
    // whole epoch. The withheld microblocks must not enter our own tree
    // either — a later key block of ours would build on them and force
    // their revelation through orphan-chasing (§5.1: secret microblocks
    // buy the attacker nothing, so none are materialized).
    tick_scheduled_ = false;
    if (!is_leader()) return;
    ++ticks_led_;
    ++microblocks_withheld_;
    schedule_microblock_tick();
    return;
  }

  // Capture the parent the regular tick will extend; the tick moves our tip
  // onto the new microblock, so the sibling must fork from the saved parent.
  const bool leading = is_leader();
  const Hash256 parent = leading ? tree_.best().block->id() : Hash256{};

  NgNode::microblock_tick();

  if (!leading) return;
  if (++ticks_led_ % equivocate_every_ != 0) return;
  // A conflicting sibling: same predecessor, same signing key, salted nonce
  // so the two headers differ even at identical timestamps. forge announces
  // it without adopting it as our own tip.
  forge_microblock(parent, rng_.next());
  ++equivocations_;
}

bool MaliciousLeader::should_relay(BlockId id) const {
  // Defensive: withhold mode creates no own microblocks, but suppress any
  // that might exist (e.g. from a mode switch mid-run in tests).
  if (mode_ == Mode::kWithholdMicroblocks) {
    const chain::Block& block = *tree_.facts(id).block;
    if (block.type() == chain::BlockType::kMicro && block.miner() == id_) return false;
  }
  return NgNode::should_relay(id);
}

}  // namespace bng::ng
