// The deployment-wide gossip arena: which blocks each node has seen.
//
// Block identities are interned (common/intern.hpp), so per-node gossip state
// is densely indexable by (block, node). One arena per deployment holds it
// block-major — row `id` is one byte per node, with a known bit (the body
// arrived or was accepted) and a requested bit (a getdata is out). A sender
// that asks "which of my peers has seen this block?" reads one contiguous
// row instead of one cache line per peer, and a new id appends a row, so
// growth never relays out what is already stored.
//
// "Seen" (known or requested) only ever grows: no call zeroes a byte, and
// learn() trades the requested bit for the known bit. The dead-inv skip
// (protocol::BaseNode::announce) depends on it: a peer that has seen a block
// when an inv is sent has still seen it when the inv would arrive.
//
// The arena also holds each node's CPU cursor, so a node's hot state is two
// dense arrays for the whole deployment, not one allocation per node.
#pragma once

#include <cstdint>
#include <vector>

#include "common/intern.hpp"
#include "common/types.hpp"

namespace bng {

class NodeStateArena {
 public:
  explicit NodeStateArena(std::uint32_t num_nodes)
      : nodes_(num_nodes), cpu_busy_(num_nodes, 0) {}

  /// Block rows stored so far (ids below this have a row).
  [[nodiscard]] std::size_t rows() const { return nodes_ == 0 ? 0 : bits_.size() / nodes_; }

  /// Known or requested.
  [[nodiscard]] bool seen(BlockId id, NodeId node) const { return get(id, node) != 0; }
  [[nodiscard]] bool known(BlockId id, NodeId node) const {
    return (get(id, node) & kKnown) != 0;
  }

  /// A getdata for `id` is out.
  void request(BlockId id, NodeId node) { at(id, node) |= kRequested; }
  /// The body arrived or was accepted: sets known, clears requested.
  void learn(BlockId id, NodeId node) { at(id, node) = kKnown; }

  /// Per-node CPU cursor (protocol verification pipeline).
  [[nodiscard]] Seconds& cpu_busy(NodeId node) { return cpu_busy_[node]; }

 private:
  static constexpr std::uint8_t kKnown = 1;
  static constexpr std::uint8_t kRequested = 2;

  [[nodiscard]] std::uint8_t get(BlockId id, NodeId node) const {
    const std::size_t i = static_cast<std::size_t>(id) * nodes_ + node;
    return i < bits_.size() ? bits_[i] : 0;
  }

  std::uint8_t& at(BlockId id, NodeId node) {
    const std::size_t i = static_cast<std::size_t>(id) * nodes_ + node;
    if (i >= bits_.size()) bits_.resize((static_cast<std::size_t>(id) + 1) * nodes_, 0);
    return bits_[i];
  }

  std::uint32_t nodes_;
  std::vector<std::uint8_t> bits_;  ///< [block][node]
  std::vector<Seconds> cpu_busy_;   ///< per node
};

}  // namespace bng
