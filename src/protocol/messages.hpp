// Wire messages for block gossip, mirroring bitcoind's inv/getdata/block flow.
//
// Announcements carry the interned BlockId, not the 32-byte hash: every
// receiver of an inv/getdata resolves it with plain array indexing instead
// of hashing. The simulated wire cost is unchanged (wire_size() still counts
// the 36 bytes a real inv vector entry occupies); only the host-side
// representation is compressed, the same way compact-block relay replaced
// repeated full-hash lookups with short ids on the relay hot path.
#pragma once

#include "chain/block.hpp"
#include "common/intern.hpp"
#include "common/types.hpp"
#include "net/network.hpp"

namespace bng::protocol {

/// Dispatch tags carried in net::Message::kind (hot path: switch, not RTTI).
enum MessageKind : std::uint8_t {
  kInvKind = 1,
  kGetDataKind = 2,
  kBlockKind = 3,
};

/// Announcement of a block id (bitcoind `inv`).
struct InvMessage final : net::Message {
  static constexpr std::size_t kWireSize = 36;
  BlockId block_id;

  explicit InvMessage(BlockId id) : net::Message(kInvKind), block_id(id) {}
  [[nodiscard]] std::size_t wire_size() const override { return kWireSize; }
  [[nodiscard]] const char* type_name() const override { return "inv"; }
};

/// Request for a block body (bitcoind `getdata`).
struct GetDataMessage final : net::Message {
  BlockId block_id;

  explicit GetDataMessage(BlockId id) : net::Message(kGetDataKind), block_id(id) {}
  [[nodiscard]] std::size_t wire_size() const override { return 36; }
  [[nodiscard]] const char* type_name() const override { return "getdata"; }
};

/// Full block body.
struct BlockMessage final : net::Message {
  chain::BlockPtr block;

  explicit BlockMessage(chain::BlockPtr b) : net::Message(kBlockKind), block(std::move(b)) {}
  [[nodiscard]] std::size_t wire_size() const override { return block->wire_size(); }
  [[nodiscard]] const char* type_name() const override { return "block"; }
};

}  // namespace bng::protocol
