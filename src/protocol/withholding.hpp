// Protocol-agnostic block-withholding (SM1) state machine.
//
// Selfish mining (Eyal & Sirer, FC 2014) is the attack behind the paper's
// 1/4 Byzantine bound (§2) and the rule that microblocks carry no chain
// weight (§5.1). The strategy used to live inside bitcoin::SelfishMiner;
// extracting it lets every protocol node type (Bitcoin, GHOST, Bitcoin-NG
// key blocks) run the identical withhold/publish/race logic through the
// BaseNode hooks (`on_mining_win` / `after_accept` / `should_relay`) — see
// protocol/selfish_node.hpp for the generic adapter.
//
// State machine (SM1):
//  * own wins are withheld (appended to the private chain);
//  * a public block at equal work triggers full reveal and a head-to-head
//    race (the honest network splits by gamma);
//  * a public block one behind triggers full reveal (attacker wins outright);
//  * with a longer lead the attacker reveals just enough to match, keeping
//    the honest network mining a losing branch;
//  * a public chain that overtakes the private one forces abandonment.
//
// Protocol-agnostic wrinkle: zero-weight blocks the adversary itself builds
// on its private chain (NG microblocks during a withheld epoch) join the
// private set instead of being mistaken for public catch-up, and are
// published together with their key block.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "chain/block_tree.hpp"
#include "common/types.hpp"

namespace bng::obs {
class TraceRing;
}

namespace bng::protocol {

class WithholdingStrategy {
 public:
  enum class Mode : std::uint8_t {
    /// Classic SM1 (Eyal & Sirer): at a one-block lead after an honest find,
    /// reveal everything and take the safe win.
    kSm1,
    /// Lead-stubborn mining (Nayak et al., EuroS&P 2016, the L variant):
    /// never perform SM1's lead-1 cash-out. On every honest find the
    /// attacker reveals only up to the public work level and keeps racing on
    /// its private tip; a race won by mining stays withheld instead of being
    /// published. Riskier block-for-block, but it keeps the honest network
    /// split for longer, which pays at high alpha/gamma.
    kLeadStubborn,
  };

  /// `publish` announces one private block to the network (the host node's
  /// announce()). Called only from end_own_win() / on_accept().
  WithholdingStrategy(const chain::BlockTree& tree, std::function<void(BlockId)> publish,
                      Mode mode = Mode::kSm1);

  /// Bracket the host's base-class on_mining_win() call: the freshly mined
  /// block flows through after_accept while "processing own win" is set, so
  /// it is neither announced nor mistaken for a public block.
  void begin_own_win();
  /// Record the new private tip and resolve a pending race won by this block.
  void end_own_win();

  /// Feed every accepted block (the host's after_accept hook). `own` is true
  /// when this node generated the block.
  void on_accept(BlockId id, bool own);

  /// True for blocks the relay policy must suppress: the private chain, the
  /// block currently inside the begin/end_own_win bracket, and — crucially —
  /// an own block extending the private tip that on_accept has not
  /// registered yet. accept_block consults the relay policy *before* the
  /// after_accept hook runs, so without the last rule the adversary's own
  /// private-chain microblocks would be announced (and the withheld epoch
  /// revealed through orphan-chasing) one hook too early.
  [[nodiscard]] bool suppress_relay(BlockId id, bool own) const;

  /// Mirror withhold/release/abandon decisions into a decision trace
  /// (obs/trace_ring.hpp). `self` labels the events with the host node's id.
  /// Null (the default) disables mirroring; recording never changes strategy
  /// state, so traced and untraced runs are bit-identical.
  void set_trace(obs::TraceRing* trace, NodeId self) {
    trace_ring_ = trace;
    self_ = self;
  }

  [[nodiscard]] std::size_t withheld() const { return private_blocks_.size(); }
  [[nodiscard]] std::uint64_t blocks_published() const { return blocks_published_; }
  [[nodiscard]] std::uint64_t branches_abandoned() const { return branches_abandoned_; }

 private:
  void publish_until(double target_work);
  void publish_all();
  void abandon_private_chain();
  [[nodiscard]] bool is_private(BlockId id) const;
  [[nodiscard]] bool extends_private_tip(BlockId id) const;
  [[nodiscard]] double private_work() const { return tree_.best().chain_work; }

  const chain::BlockTree& tree_;
  std::function<void(BlockId)> publish_;
  Mode mode_ = Mode::kSm1;

  /// Unpublished own blocks by interned id, oldest first (a suffix of the
  /// private chain; zero-weight blocks interleave behind their key block).
  std::deque<BlockId> private_blocks_;
  /// Heaviest publicly-known chain work (own published blocks included).
  double public_best_work_ = 0;
  /// True while the host's base class processes our own freshly-withheld win.
  bool processing_own_win_ = false;
  /// Head-to-head race state (SM1's 0' state) and the contested work level.
  bool racing_ = false;
  double race_work_ = 0;
  std::uint64_t blocks_published_ = 0;
  std::uint64_t branches_abandoned_ = 0;
  obs::TraceRing* trace_ring_ = nullptr;
  NodeId self_ = kNoNode;
};

}  // namespace bng::protocol
