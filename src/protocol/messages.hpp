// Wire messages for block gossip, mirroring bitcoind's inv/getdata/block flow.
//
// Every message is a net::Message value carrying the interned BlockId, not
// the 32-byte hash or the body: receivers index arrays instead of hashing and
// read bodies from the BlockStore. The simulated wire cost is unchanged (36
// bytes per inv vector entry, or the whole block); only the host-side
// representation is compressed, the way compact-block relay replaced
// full-hash lookups with short ids on the relay hot path.
#pragma once

#include <stdexcept>

#include "chain/block.hpp"
#include "chain/block_store.hpp"
#include "common/intern.hpp"
#include "common/types.hpp"
#include "net/network.hpp"

namespace bng::protocol {

/// Dispatch tags carried in net::Message::kind (hot path: switch, not RTTI).
enum MessageKind : std::uint8_t {
  kInvKind = 1,      ///< bitcoind `inv`
  kGetDataKind = 2,  ///< bitcoind `getdata`
  kBlockKind = 3,    ///< a full block
};
inline constexpr std::uint32_t kInvWireSize = 36;  ///< an inv or getdata

/// Put `block`, interned as `id`, on the wire: the one way a block is sent.
/// The store holds its body from here on (admitted blocks already are), so
/// the receiver reads it by id. Throws for a block over 4 GiB.
inline void send_block(net::Network& net, NodeId from, NodeId to, BlockId id,
                       const chain::BlockPtr& block) {
  if (block->wire_size() > UINT32_MAX) throw std::length_error("send_block: block too large");
  net.block_store()->hold(id, block);
  net.send(from, to, {kBlockKind, id, static_cast<std::uint32_t>(block->wire_size())});
}

}  // namespace bng::protocol
