// Poison transactions: microblock-fork fraud proofs (paper §4.5).
//
// A leader that signs two different microblocks extending the same block is
// "splitting the brain of the system" to enable double spends. Any node
// holding both headers has a proof of fraud; the poison transaction carries
// the header of the first block in the pruned branch, revokes the cheater's
// revenue, and grants the poisoner a fraction (e.g. 5%).
//
// Every node checks every microblock it admits, so the detector keeps one
// interned id per predecessor; a conflict's headers come from the shared
// block store only when one shows up.
#pragma once

#include <optional>
#include <vector>

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

/// Watches microblocks and reports leader equivocation: two distinct
/// microblocks extending the same predecessor. A microblock's epoch is its
/// parent's, so the parent alone keys a conflict.
class EquivocationDetector {
 public:
  /// Record that microblock `id` of epoch `epoch` extends `parent`. Returns
  /// the first microblock seen on `parent` the first time a different one
  /// extends it; at most one report per epoch. `id` seen again is silent.
  std::optional<BlockId> observe(BlockId epoch, BlockId parent, BlockId id);

 private:
  /// By parent id: the first microblock seen extending it, or kNoBlockId.
  std::vector<BlockId> first_child_;
  std::vector<BlockId> reported_epochs_;
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
