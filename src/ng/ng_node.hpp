// Bitcoin-NG protocol node (paper §4).
//
// Wins key blocks through the external mining scheduler; while its key block
// heads the main chain it is the leader and emits signed microblocks at the
// configured rate. Implements the 40/60 fee split (§4.4) and places poison
// transactions when it holds fraud evidence (§4.5).
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "ng/poison.hpp"
#include "protocol/base_node.hpp"
#include "protocol/selfish_node.hpp"

namespace bng::ng {

class NgNode : public protocol::BaseNode {
 public:
  NgNode(NodeId id, net::Network& net, chain::BlockPtr genesis, protocol::NodeConfig cfg,
         Rng rng, protocol::IBlockObserver* observer);

  /// The mining scheduler decided this node found the next key block.
  void on_mining_win(double work) override;

  /// Identity used to sign this node's epochs.
  [[nodiscard]] const crypto::PublicKey& leader_pubkey() const { return keys().pk; }
  [[nodiscard]] const Hash256& reward_address() const { return keys().address; }

  /// Is this node currently the leader on its own view?
  [[nodiscard]] bool is_leader() const;

  [[nodiscard]] std::uint64_t key_blocks_mined() const { return key_blocks_mined_; }
  [[nodiscard]] std::uint64_t microblocks_generated() const { return microblocks_generated_; }
  [[nodiscard]] std::uint64_t poisons_placed() const { return poisons_placed_; }

  /// Testing/attack hook: create and broadcast a signed microblock extending
  /// an arbitrary parent — used to model an equivocating (fraudulent) leader.
  /// `salt` lands in the header nonce so two forgeries of the same parent at
  /// the same instant are still distinct blocks.
  chain::BlockPtr forge_microblock(const Hash256& parent_id, std::uint64_t salt = 0);

 protected:
  void handle_block(const chain::BlockPtr& block, BlockId id, NodeId from) override;

  // Microblock production, overridable by adversarial leaders
  // (ng::MaliciousLeader equivocates / withholds from inside the tick).
  void schedule_microblock_tick();
  virtual void microblock_tick();
  [[nodiscard]] chain::BlockPtr build_microblock(BlockId tip, std::uint64_t salt = 0);
  void sign_header(chain::BlockHeader& header) const;

  /// Interned id of the newest key block this node mined; kNoBlockId before
  /// the first win. Leadership checks are then a u32 compare per tick.
  BlockId my_latest_key_block_ = kNoBlockId;
  bool tick_scheduled_ = false;

 private:
  /// This node's leader identity: signing key, the public key its key
  /// blocks carry, and the address its rewards are paid to.
  struct LeaderKeys {
    crypto::PrivateKey sk;
    crypto::PublicKey pk;
    Hash256 address;
  };
  /// Derived on first use (deterministically from the node id): deriving
  /// costs a scalar multiplication, and most nodes of a run never lead.
  [[nodiscard]] const LeaderKeys& keys() const;

  [[nodiscard]] chain::BlockPtr build_key_block(BlockId tip, double work);
  void note_microblock(const chain::BlockPtr& block, BlockId id, BlockId parent, NodeId from);
  void record_poison_sites(const chain::Block& block, BlockId id);
  [[nodiscard]] bool chain_has_poison_for(const Hash256& leader_addr, BlockId tip) const;

  mutable std::optional<LeaderKeys> keys_;
  EquivocationDetector detector_;
  std::deque<FraudEvidence> pending_frauds_;
  /// Where poison transactions against each leader address have been seen:
  /// the microblocks (by interned id) carrying them, own placements
  /// included. The §4.5 rule — "Only one poison transaction can be placed
  /// per cheater" — is per cheater *per chain*: the Ledger's revocation
  /// sweeps every coinbase output the address owns, so a second poison for
  /// the same leader on one chain path finds nothing and invalidates the
  /// chain — but a poison pruned away with its branch must not suppress
  /// re-placement on the winning chain. Placement therefore checks whether
  /// any recorded site is an ancestor of the tip being extended, and
  /// blocked evidence stays in the retry queue instead of being dropped.
  std::unordered_map<Hash256, std::vector<BlockId>, Hash256Hasher> poison_sites_;

  std::uint64_t key_blocks_mined_ = 0;
  std::uint64_t microblocks_generated_ = 0;
  std::uint64_t poisons_placed_ = 0;
};

/// SM1 on the key-block plane: withholds key blocks; the microblocks it
/// leads on the private chain join the private set and publish with their
/// epoch (they carry no weight, so the lead accounting is untouched — §5.1).
using SelfishNgMiner = protocol::SelfishNode<NgNode>;

}  // namespace bng::ng
