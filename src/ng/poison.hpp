// Poison transactions: microblock-fork fraud proofs (paper §4.5).
//
// A leader that signs two different microblocks extending the same block is
// "splitting the brain of the system" to enable double spends. Any node
// holding both headers has a proof of fraud; the poison transaction carries
// the header of the first block in the pruned branch, revokes the cheater's
// revenue, and grants the poisoner a fraction (e.g. 5%).
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "chain/block_tree.hpp"
#include "chain/params.hpp"
#include "chain/transaction.hpp"
#include "chain/validation.hpp"

namespace bng::ng {

/// Evidence that a leader signed conflicting microblocks. Both headers are
/// kept: whichever branch eventually loses supplies the "pruned" header for
/// the poison transaction (§4.5).
struct FraudEvidence {
  Hash256 accused_key_block;  ///< the epoch whose leader equivocated
  chain::BlockHeader header_a;  ///< first observed conflicting header
  chain::BlockHeader header_b;  ///< second observed conflicting header

  /// The header of the branch that actually lost, resolved against the
  /// block tree at poison-construction time (§4.5: "whichever branch
  /// eventually loses"). Falls back to header_b when neither header is on
  /// the chain ending at `tip` (either would prove the fraud) — the old
  /// behaviour of unconditionally returning header_b mis-poisoned whenever
  /// the *second* observed sibling was the one that won.
  [[nodiscard]] const chain::BlockHeader& pruned_header(const chain::BlockTree& tree,
                                                        BlockId tip) const;
};

/// Watches microblock headers and reports leader equivocation: two distinct
/// microblocks by the same epoch key extending the same predecessor.
class EquivocationDetector {
 public:
  /// Record an observed microblock header. Returns evidence the first time a
  /// conflict for (epoch, prev) is seen; at most one report per epoch.
  std::optional<FraudEvidence> observe(const Hash256& epoch_key_block,
                                       const chain::BlockHeader& header);

  [[nodiscard]] std::size_t tracked() const { return first_seen_.size(); }

 private:
  struct PairHasher {
    std::size_t operator()(const std::pair<Hash256, Hash256>& p) const noexcept {
      return Hash256Hasher{}(p.first) * 1000003 ^ Hash256Hasher{}(p.second);
    }
  };
  /// (epoch key block, prev) -> first microblock header seen.
  std::unordered_map<std::pair<Hash256, Hash256>, chain::BlockHeader, PairHasher> first_seen_;
  std::unordered_set<Hash256, Hash256Hasher> reported_epochs_;
};

/// Revenue of the accused leader that is still revocable on the chain ending
/// at `tip`: coinbase outputs paying the leader's address in its own key
/// block and in the successor key block (the 40% fee share).
Amount compute_revocable(const chain::BlockTree& tree, BlockId tip,
                         const Hash256& accused_key_block);

/// Build the poison transaction around a specific pruned header. `bounty`
/// must not exceed poison_reward_fraction * revocable (the Ledger enforces
/// this on replay).
chain::TxPtr make_poison_tx(const Hash256& accused_key_block,
                            const chain::BlockHeader& pruned_header,
                            const Hash256& poisoner_address, Amount bounty);

/// Pick whichever evidence header is NOT on the chain ending at `tip` (the
/// pruned one); nullptr if both are on-chain ancestors (cannot happen for a
/// real fork) or evidence is empty.
const chain::BlockHeader* select_pruned_header(const chain::BlockTree& tree, BlockId tip,
                                               const FraudEvidence& evidence);

/// Contextual poison validation against the chain ending at `tip` (§4.5):
///  - the accused key block is on the chain;
///  - the pruned header is a microblock signed by the accused epoch key;
///  - the pruned header is NOT on the chain;
///  - the chain extends the pruned header's predecessor with a *different*
///    microblock of the same epoch (equivocation, not a benign leader
///    switch as in Fig. 2).
chain::ValidationResult check_poison(const chain::BlockTree& tree, BlockId tip,
                                     const chain::PoisonPayload& payload,
                                     bool verify_signature);

}  // namespace bng::ng
