// Struct-of-arrays relayout of hot per-node protocol state.
//
// The BlockId interning (common/intern.hpp) makes per-node gossip state
// densely indexable by (node, id). Instead of every node owning its own
// epoch-stamped FlatIdSet — num_nodes separate allocations, each pulling its
// own cache lines — one experiment-wide arena holds all of them as planes of
// a single stamp array laid out [plane][node][id]. A 10k–50k-node deployment
// touches two big flat arrays instead of 2×N small ones, the per-node CPU
// cursor rides in a third dense plane, and growth (a new block id past
// capacity) is one amortized relayout for the whole fleet.
//
// Semantics are FlatIdSet's exactly: epoch-stamped membership, O(1)
// insert/contains/erase, clear() by epoch bump with stamp 0 reserved as
// "never a member". The swap is pure data layout — no observable behavior
// (and no digest) changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/intern.hpp"
#include "common/types.hpp"

namespace bng {

class NodeStateArena {
 public:
  enum Plane : std::uint32_t {
    kKnown = 0,      ///< seen bodies (by interned id)
    kRequested = 1,  ///< outstanding getdata (by interned id)
  };
  static constexpr std::uint32_t kPlanes = 2;

  explicit NodeStateArena(std::uint32_t num_nodes)
      : nodes_(num_nodes),
        epochs_(static_cast<std::size_t>(kPlanes) * num_nodes, 1),
        cpu_busy_(num_nodes, 0) {}

  [[nodiscard]] std::uint32_t num_nodes() const { return nodes_; }
  [[nodiscard]] std::uint32_t capacity() const { return cap_; }

  /// Row handle for (plane, node) — precompute once per view.
  [[nodiscard]] std::uint32_t row(Plane p, NodeId node) const {
    return static_cast<std::uint32_t>(p) * nodes_ + node;
  }

  [[nodiscard]] bool contains(std::uint32_t row, BlockId id) const {
    return id < cap_ &&
           stamps_[static_cast<std::size_t>(row) * cap_ + id] == epochs_[row];
  }

  void insert(std::uint32_t row, BlockId id) {
    if (id >= cap_) grow(id);
    stamps_[static_cast<std::size_t>(row) * cap_ + id] = epochs_[row];
  }

  void erase(std::uint32_t row, BlockId id) {
    if (id < cap_) {
      auto& s = stamps_[static_cast<std::size_t>(row) * cap_ + id];
      if (s == epochs_[row]) s = 0;
    }
  }

  /// Drop all of one row's members without touching the array (epoch bump).
  void clear(std::uint32_t row) {
    if (++epochs_[row] == 0) {
      std::fill(stamps_.begin() + static_cast<std::ptrdiff_t>(row) * cap_,
                stamps_.begin() + (static_cast<std::ptrdiff_t>(row) + 1) * cap_, 0u);
      epochs_[row] = 1;
    }
  }

  /// Per-node CPU cursor (protocol verification pipeline).
  [[nodiscard]] Seconds& cpu_busy(NodeId node) { return cpu_busy_[node]; }

 private:
  void grow(BlockId id) {
    std::uint32_t cap = std::max(cap_ * 2, 64u);
    cap = std::max(cap, id + 1);
    std::vector<std::uint32_t> next(
        static_cast<std::size_t>(kPlanes) * nodes_ * cap, 0u);
    const std::size_t rows = static_cast<std::size_t>(kPlanes) * nodes_;
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(stamps_.begin() + static_cast<std::ptrdiff_t>(r * cap_),
                stamps_.begin() + static_cast<std::ptrdiff_t>(r * cap_ + cap_),
                next.begin() + static_cast<std::ptrdiff_t>(r * cap));
    }
    stamps_ = std::move(next);
    cap_ = cap;
  }

  std::uint32_t nodes_;
  std::uint32_t cap_ = 0;
  std::vector<std::uint32_t> stamps_;  ///< [plane][node][id], stride cap_
  std::vector<std::uint32_t> epochs_;  ///< per (plane, node) row
  std::vector<Seconds> cpu_busy_;      ///< per node
};

/// FlatIdSet-shaped view over one arena row, so call sites keep reading
/// `known_.contains(id)` — the relayout is invisible above this line.
class ArenaIdSet {
 public:
  ArenaIdSet(NodeStateArena& arena, NodeStateArena::Plane plane, NodeId node)
      : arena_(&arena), row_(arena.row(plane, node)) {}

  [[nodiscard]] bool contains(BlockId id) const { return arena_->contains(row_, id); }
  void insert(BlockId id) { arena_->insert(row_, id); }
  void erase(BlockId id) { arena_->erase(row_, id); }
  void clear() { arena_->clear(row_); }

 private:
  NodeStateArena* arena_;
  std::uint32_t row_;
};

}  // namespace bng
