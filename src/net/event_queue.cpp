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

void EventQueue::grow_slots() { chunks_.push_back(std::make_unique<Chunk>()); }

void EventQueue::route_overflow(const Entry& e) {
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), entry_greater);
  ++overflow_pushes_;
}

void EventQueue::drain_bucket(std::size_t i, std::vector<Entry>& out) {
  for (std::uint32_t s = heads_[i]; s != kNil;) {
    const Link& l = link(s);
    out.push_back(Entry{l.at, l.seq, s});
    s = l.next;
    --ring_count_;
  }
  heads_[i] = kNil;
}

Seconds EventQueue::latest_ring_time() {
  std::int64_t b = cur_bucket_ + kBuckets;
  while (heads_[ring_slot(b)] == kNil) --b;  // ring_count_ > 0 bounds this
  Seconds latest = -kInf;
  for (std::uint32_t s = heads_[ring_slot(b)]; s != kNil;) {
    const Link& l = link(s);
    latest = std::max(latest, l.at);
    s = l.next;
  }
  return latest;
}

void EventQueue::anchor(Seconds origin, double width) {
  width_ = std::clamp(width, kMinWidth, kMaxWidth);
  inv_width_ = 1.0 / width_;
  origin_ = origin;
  cur_bucket_ = -1;
  // Entries past the new window fall (back) into the overflow heap; one at
  // `origin` lands in bucket 0, so the caller always makes progress.
  for (const Entry& e : scratch_) route(e);
}

void EventQueue::epoch_restart() {
  // Pop a bounded sorted batch off the overflow heap. Its span is exactly
  // the future the next epoch must cover, so the width tunes itself to the
  // observed inter-event gap — a median-based estimate, so one far outlier
  // cannot flatten the calendar.
  scratch_.clear();
  const std::size_t cap =
      static_cast<std::size_t>(kBuckets) * static_cast<std::size_t>(kTargetPerBucket);
  while (scratch_.size() < cap && !overflow_.empty()) {
    scratch_.push_back(overflow_.front());
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
    overflow_.pop_back();
  }
  const Seconds mn = scratch_.front().at;
  const std::size_t mid = scratch_.size() / 2;
  double gap = mid > 0 ? (scratch_[mid].at - mn) / static_cast<double>(mid) : 0.0;
  if (gap <= 0 && scratch_.size() > 1) {
    gap = (scratch_.back().at - mn) / static_cast<double>(scratch_.size() - 1);
  }
  anchor(mn, gap > 0 ? gap * kTargetPerBucket : width_);
}

bool EventQueue::reanchor_dense_run() {
  const std::size_t n = run_.size();
  const Seconds first = run_.front().at;
  double width = std::clamp(
      (run_.back().at - first) / static_cast<double>(n - 1) * kTargetPerBucket, kMinWidth,
      kMaxWidth);
  if (width * kNarrowStep > width_) return false;
  // A ring narrower than what is already queued would send the entries
  // past its end to the overflow heap, and each later epoch restart would
  // widen the calendar again. So the new ring reaches the latest ring entry
  // (into its last bucket), and the 4x rule holds for that width too.
  if (ring_count_ > 0) {
    width = std::max(width, (latest_ring_time() - first) / static_cast<double>(kBuckets - 1));
    if (width * kNarrowStep > width_) return false;
  }
  // No width splits a tie, so a bucket mostly at one time stays as it is.
  // In a sorted run, a time held by more than half the entries is the
  // middle entry's.
  const Seconds mid = run_[n / 2].at;
  const auto lo = std::lower_bound(run_.begin(), run_.end(), mid,
                                   [](const Entry& e, Seconds t) { return e.at < t; });
  const auto hi = std::upper_bound(lo, run_.end(), mid,
                                   [](Seconds t, const Entry& e) { return t < e.at; });
  if (2 * static_cast<std::size_t>(hi - lo) > n) return false;
  scratch_.assign(run_.begin(), run_.end());
  run_.clear();
  for (std::int64_t b = cur_bucket_ + 1; ring_count_ > 0; ++b) drain_bucket(ring_slot(b), scratch_);
  ++reanchors_;
  anchor(first, width);
  return true;
}

void EventQueue::build_run() {
  run_.clear();
  run_index_ = 0;
  for (;;) {
    if (ring_count_ == 0) {
      if (overflow_.empty()) return;  // queue fully drained
      epoch_restart();
      continue;
    }
    std::int64_t b = cur_bucket_ + 1;
    while (heads_[ring_slot(b)] == kNil) ++b;  // ring_count_ > 0 bounds this
    // Overflow entries whose bucket is at or before b must merge in before
    // the window passes them; the heap surfaces exactly the matured ones.
    bool merged = false;
    while (!overflow_.empty()) {
      const Entry e = overflow_.front();
      if ((e.at - origin_) * inv_width_ >= static_cast<double>(b + 1)) break;
      std::pop_heap(overflow_.begin(), overflow_.end(), entry_greater);
      overflow_.pop_back();
      route(e);  // lands in a ring bucket <= b's window
      merged = true;
    }
    if (merged) continue;  // merged entries may occupy an earlier bucket
    cur_bucket_ = b;
    drain_bucket(ring_slot(b), run_);
    std::sort(run_.begin(), run_.end(), entry_less);
    // run_ holds only this bucket and near_ is empty: the one point where
    // the whole calendar can move with no queued entry left behind.
    if (run_.size() > kDenseBucket && reanchor_dense_run()) continue;
    return;
  }
}

bool EventQueue::pop_one(Seconds limit) {
  if (run_index_ == run_.size() && near_.empty()) {
    if (ring_count_ == 0 && overflow_.empty()) return false;
    build_run();
  }
  const bool from_near =
      !near_.empty() &&
      (run_index_ == run_.size() || !entry_less(run_[run_index_], near_.front()));
  const Entry e = from_near ? near_.front() : run_[run_index_];
  if (e.at > limit) return false;
  if (from_near) {
    near_pop_top();
    ++near_pops_;
  } else {
    ++run_index_;
  }
  now_ = e.at;
  cur_seq_ = e.seq;
  ++executed_;
  // Hint the run head, the next event unless the near heap's top orders
  // before it, that it runs soon: a delivery prefetches its receiver while
  // this event runs (common/small_fn.hpp).
  if (run_index_ < run_.size()) slot(run_[run_index_].slot).prefetch();
  // Invoke in place — slot addresses are stable (chunked storage), and the
  // slot cannot be recycled until it is put on the free list below, so
  // callbacks may schedule freely. The callable is destroyed only after it
  // returns, like the std::function it replaced.
  try {
    slot(e.slot)();
  } catch (...) {
    free_slot(e.slot);
    throw;
  }
  free_slot(e.slot);
  return true;
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

// --- 4-ary min-heap for arrivals at or behind the consuming bucket ----------
//
// Holds only events scheduled (after their bucket was frozen) for times at
// or before the current bucket window: zero-delay follow-ups, and any delay
// shorter than what is left of the bucket. Its share of events follows the
// width. On bitcoin_fig7 (job 0 of seed 1) 53% of events ran from it, and it
// peaked at 129 entries, under a 0.31 s width; re-anchored at 0.0269 s, 22%
// do, and it peaks at 60.

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
