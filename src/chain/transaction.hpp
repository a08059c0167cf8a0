// Transactions, outpoints and the poison proof-of-fraud payload.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/ecdsa.hpp"

namespace bng::chain {

/// Reference to a transaction output.
struct Outpoint {
  Hash256 txid;
  std::uint32_t vout = 0;

  friend auto operator<=>(const Outpoint&, const Outpoint&) = default;
};

struct OutpointHasher {
  std::size_t operator()(const Outpoint& o) const noexcept {
    return Hash256Hasher{}(o.txid) * 31 + o.vout;
  }
};

struct TxInput {
  Outpoint prevout;
};

struct TxOutput {
  Amount value = 0;
  /// Opaque address (hash of the owner's public key).
  Hash256 owner;
};

/// Proof of fraud carried by a poison transaction (§4.5): the header of the
/// first microblock in the pruned branch, demonstrating that the accused
/// leader signed two successors of the same block. Stored as the serialized
/// pruned header plus the accused key block's id.
struct PoisonPayload {
  Hash256 accused_key_block;          ///< key block whose leader equivocated
  std::vector<std::uint8_t> pruned_header;  ///< serialized conflicting header
  Hash256 pruned_header_id;           ///< id (hash) of that header
};

/// A transaction. `fee` is explicit: in the evaluation workload transactions
/// are synthetic and independent (paper §7 "No Transaction Propagation"), so
/// carrying the fee avoids recomputing input sums on the hot path, while the
/// UTXO layer still verifies it when full validation is on.
class Transaction {
 public:
  std::vector<TxInput> inputs;
  std::vector<TxOutput> outputs;
  Amount fee = 0;
  /// Extra bytes to pad the wire size (synthetic workloads use identical
  /// sizes; paper §7).
  std::uint32_t padding_bytes = 0;
  /// Present only for coinbase transactions: height tag to make ids unique.
  std::optional<std::uint32_t> coinbase_height;
  /// Present only for poison transactions.
  std::optional<PoisonPayload> poison;

  [[nodiscard]] bool is_coinbase() const { return coinbase_height.has_value(); }
  [[nodiscard]] bool is_poison() const { return poison.has_value(); }

  /// Serialize for hashing / size accounting.
  void serialize(ByteWriter& w) const;

  /// Wire size in bytes (serialization + padding).
  [[nodiscard]] std::size_t wire_size() const;

  /// Transaction id: sha256d of the serialization (padding contributes
  /// length only, not content). The first call to id() or wire_size()
  /// serializes once and caches both; callers must not mutate a transaction
  /// after handing it to a TxPtr.
  [[nodiscard]] Hash256 id() const;

 private:
  mutable std::optional<Hash256> cached_id_;  ///< set together with cached_size_
  mutable std::size_t cached_size_ = 0;
};

using TxPtr = std::shared_ptr<const Transaction>;

/// Build a simple value-transfer transaction.
TxPtr make_transfer(const Outpoint& from, Amount value, const Hash256& to, Amount fee,
                    std::uint32_t padding_bytes = 0);

/// Address derivation: sha256 of the serialized public key.
Hash256 address_of(const crypto::PublicKey& key);

/// Deterministic throwaway address for simulations (derived from a tag).
Hash256 address_from_tag(std::uint64_t tag);

}  // namespace bng::chain
