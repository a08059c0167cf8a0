#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bng::net {

namespace {
constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
}

void EventQueue::grow_slots() { chunks_.push_back(std::make_unique<Slot[]>(kChunkSize)); }

bool EventQueue::cancel(std::uint64_t id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= num_slots_) return false;
  Slot& s = slot(idx);
  if (s.gen != gen || !s.fn) return false;
  // Lazy deletion: invalidate the slot; the queue entry dies when it
  // surfaces (pop, bucket freeze, or compaction).
  ++s.gen;
  s.fn.reset();
  free_slots_.push_back(idx);
  ++stale_;
  return true;
}

void EventQueue::route_overflow(const Entry& e) {
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), entry_greater);
}

const EventQueue::Entry* EventQueue::overflow_top() {
  while (!overflow_.empty()) {
    const Entry& t = overflow_.front();
    if (slot(t.slot).gen == t.gen) return &t;
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
    overflow_.pop_back();
    --stale_;
  }
  return nullptr;
}

bool EventQueue::epoch_restart() {
  // Pop a bounded sorted batch off the overflow heap. Its span is exactly
  // the future the next epoch must cover, so the width tunes itself to the
  // observed inter-event gap — a median-based estimate, so one far outlier
  // cannot flatten the calendar.
  scratch_.clear();
  const std::size_t cap =
      static_cast<std::size_t>(kBuckets) * static_cast<std::size_t>(kTargetPerBucket);
  while (scratch_.size() < cap) {
    const Entry* top = overflow_top();
    if (top == nullptr) break;
    scratch_.push_back(*top);
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
    overflow_.pop_back();
  }
  if (scratch_.empty()) return false;
  const Seconds mn = scratch_.front().at;
  const std::size_t mid = scratch_.size() / 2;
  double gap = mid > 0 ? (scratch_[mid].at - mn) / static_cast<double>(mid) : 0.0;
  if (gap <= 0 && scratch_.size() > 1) {
    gap = (scratch_.back().at - mn) / static_cast<double>(scratch_.size() - 1);
  }
  if (gap > 0) {
    double w = gap * kTargetPerBucket;
    if (w < kMinWidth) w = kMinWidth;
    if (w > kMaxWidth) w = kMaxWidth;
    width_ = w;
    inv_width_ = 1.0 / w;
  }
  origin_ = mn;
  cur_bucket_ = -1;
  // Batch entries past the new window (median tuning can leave a tail) fall
  // straight back into the overflow heap; the minimum lands in bucket 0, so
  // the restart always makes progress.
  for (const Entry& e : scratch_) route(e);
  return true;
}

void EventQueue::sweep_stale() {
  for (auto& bucket : buckets_) {
    if (bucket.empty()) continue;
    std::size_t kept = 0;
    for (const Entry& e : bucket) {
      if (slot(e.slot).gen == e.gen) {
        bucket[kept++] = e;
      } else {
        --stale_;
        --ring_count_;
      }
    }
    bucket.resize(kept);
  }
  std::size_t kept = 0;
  for (const Entry& e : overflow_) {
    if (slot(e.slot).gen != e.gen) {
      --stale_;
      continue;
    }
    overflow_[kept++] = e;
  }
  overflow_.resize(kept);
  std::make_heap(overflow_.begin(), overflow_.end(), entry_greater);
}

void EventQueue::build_run() {
  run_.clear();
  run_index_ = 0;
  // When mostly tombstones (mass cancellation), one compaction sweep beats
  // freezing buckets of the dead repeatedly.
  if (stale_ >= kMinSweep && stale_ >= (ring_count_ + overflow_.size()) / 2) sweep_stale();
  for (;;) {
    if (ring_count_ == 0) {
      if (overflow_.empty()) return;  // queue fully drained
      if (!epoch_restart()) return;   // overflow was all tombstones
      continue;
    }
    std::int64_t b = cur_bucket_ + 1;
    while (buckets_[ring_slot(b)].empty()) ++b;  // ring_count_ > 0 bounds this
    // Overflow entries whose bucket is at or before b must merge in before
    // the window passes them; the heap surfaces exactly the matured ones.
    bool merged = false;
    while (const Entry* top = overflow_top()) {
      if ((top->at - origin_) * inv_width_ >= static_cast<double>(b + 1)) break;
      const Entry e = *top;
      std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
      overflow_.pop_back();
      route(e);  // lands in a ring bucket <= b's window
      merged = true;
    }
    if (merged) continue;  // merged entries may occupy an earlier bucket
    auto& bucket = buckets_[ring_slot(b)];
    cur_bucket_ = b;
    ring_count_ -= bucket.size();
    for (const Entry& e : bucket) {
      if (slot(e.slot).gen == e.gen) {
        run_.push_back(e);  // live
      } else {
        --stale_;
      }
    }
    bucket.clear();  // keeps capacity for the slot's next lap
    if (run_.empty()) continue;
    std::sort(run_.begin(), run_.end(), entry_less);
    return;
  }
}

bool EventQueue::pop_one(Seconds limit) {
  pop_limit_ = limit;
  for (;;) {
    const bool have_run = run_index_ < run_.size();
    const bool have_near = !near_.empty();
    const Entry* cand;
    bool from_near;
    if (have_run && (!have_near || entry_less(run_[run_index_], near_.front()))) {
      cand = &run_[run_index_];
      from_near = false;
    } else if (have_near) {
      cand = &near_.front();
      from_near = true;
    } else {
      if (ring_count_ == 0 && overflow_.empty()) return false;
      build_run();
      if (run_.empty()) return false;  // only tombstones remained
      continue;
    }

    Slot& s = slot(cand->slot);
    if (s.gen != cand->gen) {  // cancelled; entry is stale
      --stale_;
      if (from_near) {
        near_pop_top();
      } else {
        ++run_index_;
      }
      continue;
    }
    if (cand->at > limit) return false;

    const Entry e = *cand;
    if (from_near) {
      near_pop_top();
    } else {
      ++run_index_;
    }
    now_ = e.at;
    cur_seq_ = e.seq;
    ++s.gen;  // no longer cancellable: it fires now
    ++executed_;
    // Hint the run head, the next event in all but the rare near-heap pop,
    // that it runs soon: a delivery prefetches its receiver while this
    // event runs (common/small_fn.hpp). The entry may be stale; its slot
    // then holds another callable or none, and a hint changes nothing.
    if (run_index_ < run_.size()) slot(run_[run_index_].slot).fn.prefetch();
    // Invoke in place — slot addresses are stable (chunked storage), and the
    // slot cannot be recycled until it is pushed onto the freelist below, so
    // callbacks may schedule freely. The callable is destroyed only after it
    // returns, like the std::function it replaced.
    try {
      s.fn();
    } catch (...) {
      s.fn.reset();
      free_slots_.push_back(e.slot);
      throw;
    }
    s.fn.reset();
    free_slots_.push_back(e.slot);
    return true;
  }
}

bool EventQueue::consume_if_next(std::uint64_t id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  // Mirror of pop_one's selection loop: surface the earliest live entry,
  // retiring tombstones on the way, and consume it only if it is `id`.
  for (;;) {
    const bool have_run = run_index_ < run_.size();
    const bool have_near = !near_.empty();
    const Entry* cand;
    bool from_near;
    if (have_run && (!have_near || entry_less(run_[run_index_], near_.front()))) {
      cand = &run_[run_index_];
      from_near = false;
    } else if (have_near) {
      cand = &near_.front();
      from_near = true;
    } else {
      if (ring_count_ == 0 && overflow_.empty()) return false;
      build_run();
      if (run_.empty()) return false;
      continue;
    }

    Slot& s = slot(cand->slot);
    if (s.gen != cand->gen) {
      --stale_;
      if (from_near) {
        near_pop_top();
      } else {
        ++run_index_;
      }
      continue;
    }
    if (cand->slot != idx || cand->gen != gen) return false;
    if (cand->at > pop_limit_) return false;

    const Entry e = *cand;
    if (from_near) {
      near_pop_top();
    } else {
      ++run_index_;
    }
    now_ = e.at;
    cur_seq_ = e.seq;
    ++s.gen;
    ++executed_;
    s.fn.reset();  // the caller runs the work inline; the callback never fires
    free_slots_.push_back(e.slot);
    return true;
  }
}

void EventQueue::run_until(Seconds t_end) {
  while (pop_one(t_end)) {
  }
  // An earlier bound than the clock leaves both alone.
  if (now_ <= t_end) {
    now_ = t_end;
    cur_seq_ = next_seq_;
  }
}

void EventQueue::run_all() {
  while (pop_one(kInf)) {
  }
  if (now_ < reserved_until_) now_ = reserved_until_;
  cur_seq_ = next_seq_;
}

// --- Small 4-ary min-heap for arrivals behind the consuming bucket ----------
//
// Holds only events scheduled (after their bucket was frozen) for times at
// or before the current bucket window — typically zero-delay follow-ups.
// Stays tiny, so sift depth is 1-2 levels.

void EventQueue::near_push(const Entry& e) {
  near_.push_back(e);
  std::size_t i = near_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    const Entry& p = near_[parent];
    if (entry_less(p, e)) break;
    near_[i] = p;
    i = parent;
  }
  near_[i] = e;
}

void EventQueue::near_pop_top() {
  const std::size_t n = near_.size() - 1;
  if (n == 0) {
    near_.pop_back();
    return;
  }
  const Entry e = near_[n];
  near_.pop_back();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t end_child = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (entry_less(near_[c], near_[best])) best = c;
    }
    if (entry_less(e, near_[best])) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = e;
}

}  // namespace bng::net
