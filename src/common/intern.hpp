// Block-identity interning: Hash256 -> dense u32 BlockId, assigned once per
// experiment at first sight.
//
// Every layer that used to key hot structures by the full 32-byte hash
// (BlockTree indices, known/requested gossip sets, orphan buffers, metrics
// bookkeeping) keys them by BlockId instead: one shared hash-map lookup when
// a block first appears anywhere in the deployment, O(1) dense-array access
// everywhere after. This mirrors how production relay paths evolved (compact
// block relay replaces repeated full-hash lookups with short ids on the hot
// path); here the interner is simulation-wide, so an id is meaningful across
// nodes and wire messages can carry it directly. The simulated wire format
// is unchanged — inv/getdata still *cost* 36 bytes — only the host-side
// representation shrinks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace bng {

/// Dense per-experiment block identity. Assigned in first-sight order by the
/// experiment's BlockInterner; valid only within that experiment.
using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlockId = UINT32_MAX;

class BlockInterner {
 public:
  /// Id for `h`, assigning the next dense id at first sight.
  BlockId intern(const Hash256& h) {
    auto [it, inserted] = ids_.try_emplace(h, static_cast<BlockId>(hashes_.size()));
    if (inserted) hashes_.push_back(h);
    return it->second;
  }

  /// Id for `h` if already interned; kNoBlockId otherwise.
  [[nodiscard]] BlockId lookup(const Hash256& h) const {
    auto it = ids_.find(h);
    return it == ids_.end() ? kNoBlockId : it->second;
  }

  [[nodiscard]] const Hash256& hash_of(BlockId id) const {
    if (id >= hashes_.size()) throw std::out_of_range("BlockInterner: bad id");
    return hashes_[id];
  }

  /// Number of ids assigned so far; ids are dense in [0, size()).
  [[nodiscard]] std::size_t size() const { return hashes_.size(); }

 private:
  std::unordered_map<Hash256, BlockId, Hash256Hasher> ids_;
  std::vector<Hash256> hashes_;
};

}  // namespace bng
