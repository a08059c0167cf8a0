// Discrete-event simulation core.
//
// The entire emulated network (paper §7: 1000-node testbed) is driven by one
// deterministic event queue. Events at equal timestamps are ordered by
// insertion sequence, so a run is a pure function of its seed.
//
// Fast-path design (three pieces):
//   * Callbacks live in a recycled slot pool, and SmallFn keeps the common
//     lambdas allocation-free. A scheduled event always runs: there is no
//     cancellation, so every queued entry is a live event. Each slot has a
//     Link beside it (same chunk, so neither ever moves): while its event
//     waits in a ring bucket the link holds the event's (at, seq) and the
//     next slot in that bucket's list, and while the slot is free it
//     threads the free list.
//   * The priority structure is a calendar queue: a ring of kBuckets
//     fixed-width time buckets covers the near future, so the common insert
//     (a delivery, a CPU completion, a re-armed link train) is one multiply
//     and a list push onto its bucket's head — O(1), no sift, no sort, no
//     allocation. A bucket is a singly linked list through the slots' links
//     and the ring is one 8 KB array of list heads, so the queue's memory
//     follows its pending events (the slots) rather than each bucket's peak.
//     Consumption drains one bucket at a time into a sorted run (buckets
//     hold ~kTargetPerBucket events, so each sort is short). Events beyond
//     the ring spill to an overflow heap and are pulled forward in bulk as
//     the window advances; when the ring drains, the epoch restarts at the
//     overflow minimum and the bucket width re-tunes itself from the
//     observed inter-event gap. A bucket frozen with more than kDenseBucket
//     entries re-tunes it too (Brown's calendar queue re-sizes from the
//     density it observes): if its own mean gap, floored so the new ring
//     still reaches the latest ring entry, asks for a width at least
//     kNarrowStep times narrower, the calendar re-anchors at its first
//     entry with that width.
//     A 4-ary heap takes every event scheduled at or behind the bucket
//     being consumed. How many depends on the width: on perfbench's
//     bitcoin_fig7 (job 0 of seed 1, 120,468 events) 64,420 ran from it
//     under a 0.31 s width set once and never lowered; re-anchored at
//     0.0269 s, 26,056 do.
//   * Ordering is the total order (at, seq); the structure only changes how
//     that order is produced, so a run replays identically. All routing
//     decisions go through one monotone map from time to bucket index
//     (origin and width fixed between anchors, and an anchor routes every
//     ring entry afresh), so an event can never land behind one that orders
//     after it — boundary cases included.
//
// Prefetch: before running an event, pop_one hands the run head SmallFn's
// prefetch hint (the next event, unless the near heap's top orders before
// it), so a callable that declares a hook (a network delivery) pulls its
// receiver into the cache while this event runs. The hint reads no queue
// state a pop depends on, so the (at, seq) order is untouched.
//
// Reserved places: reserve_seq(at) takes the seq a schedule now would get
// and schedules nothing; schedule_reserved fills the (at, seq) place later,
// as long as it has not passed (passed() compares it with the running
// event). A place never filled costs nothing but its seq number, and the
// clock treats it as an event that ran: run_until passes every place up to
// its end, and run_all stops at the latest place if that is later than the
// last event. Network::send_ignored uses this to skip deliveries nobody
// reads while every other event keeps its exact place.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/small_fn.hpp"
#include "common/types.hpp"

namespace bng::net {

class EventQueue {
 public:
  using Callback = SmallFn;

  EventQueue() { heads_.fill(kNil); }

  /// Current simulated time (seconds).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now). Templated so the callable
  /// is constructed straight into its slot — scheduling a fitting lambda
  /// performs no allocation and no extra moves.
  template <typename F>
  void schedule_at(Seconds at, F&& fn) {
    if (at < now_) throw std::invalid_argument("EventQueue: cannot schedule in the past");
    insert(at, next_seq_++, std::forward<F>(fn));
  }

  /// Schedule `fn` after `delay` seconds.
  template <typename F>
  void schedule_in(Seconds delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Take the sequence number an event scheduled at `at` now would get, and
  /// schedule nothing. The (at, seq) place can be filled later with
  /// schedule_reserved, and the event then runs exactly where it would have
  /// run had it been scheduled now. Used by Network::send_ignored for
  /// deliveries that usually never need an event at all.
  std::uint64_t reserve_seq(Seconds at) {
    if (at < now_) throw std::invalid_argument("EventQueue: cannot reserve in the past");
    if (at > reserved_until_) reserved_until_ = at;
    return next_seq_++;
  }

  /// Schedule `fn` at a place reserved by reserve_seq. Throws
  /// std::logic_error if the place has already passed.
  template <typename F>
  void schedule_reserved(Seconds at, std::uint64_t seq, F&& fn) {
    if (passed(at, seq)) throw std::logic_error("EventQueue: reserved place already passed");
    insert(at, seq, std::forward<F>(fn));
  }

  /// Whether an event at (at, seq) would already have run: it orders before
  /// the event running now (between runs, before every event not yet run).
  [[nodiscard]] bool passed(Seconds at, std::uint64_t seq) const {
    return at < now_ || (at == now_ && seq < cur_seq_);
  }

  /// Run until the queue is empty or simulated time exceeds `t_end`.
  /// Events scheduled exactly at `t_end` are executed. Afterwards every
  /// place up to `t_end`, reserved or not, has passed.
  void run_until(Seconds t_end);

  /// Run until the queue drains completely. The clock stops at the later of
  /// the last event and the latest reserved place, where it would stop had
  /// every reserved place held an event.
  void run_all();

  /// Pending event count. Exact: every queued entry is an event that runs.
  [[nodiscard]] std::size_t pending() const {
    return (run_.size() - run_index_) + near_.size() + ring_count_ + overflow_.size();
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Times a dense frozen bucket re-anchored the calendar at a narrower
  /// width (build_run). Observation only: the (at, seq) order never depends
  /// on it.
  [[nodiscard]] std::uint64_t reanchors() const { return reanchors_; }

  /// Events that ran from the near heap rather than the sorted run.
  [[nodiscard]] std::uint64_t near_pops() const { return near_pops_; }

  /// Callback slots the queue holds: the most events ever live at once
  /// (queued, or running), since a slot is made only when none is free.
  [[nodiscard]] std::uint32_t slots() const { return num_slots_; }

  /// Entries pushed onto the overflow heap, past the ring's window (also
  /// when an anchor re-routes one there). Observation only.
  [[nodiscard]] std::uint64_t overflow_pushes() const { return overflow_pushes_; }

 private:
  /// Execution key is (at, seq); seq is unique, so the order is total and a
  /// run replays identically regardless of the internal structure.
  struct Entry {
    Seconds at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// A slot's calendar link. While the slot's event waits in a ring
  /// bucket: its (at, seq) and the next slot in that bucket's list. While
  /// the slot is free: `next` is the next free slot.
  struct Link {
    Seconds at;
    std::uint64_t seq;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};  ///< end of a list

  /// Callback slots, recycled through the free list, live in fixed chunks
  /// with their links so their addresses survive growth — callbacks are
  /// invoked in place and may themselves schedule new events.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  struct Chunk {
    Callback fns[kChunkSize];
    Link links[kChunkSize];
  };

  // --- Calendar geometry ----------------------------------------------------
  // Bucket b covers [origin_ + b*width_, origin_ + (b+1)*width_). The ring
  // holds buckets (cur_bucket_, cur_bucket_ + kBuckets]; bucket cur_bucket_
  // is the one whose entries were last frozen into run_, so late arrivals
  // mapping at or before it go to the near heap. Everything past the ring
  // sits unsorted in overflow_ until the window slides over it.
  static constexpr std::int64_t kBuckets = 2048;  ///< power of two (ring mask)
  static constexpr double kTargetPerBucket = 8.0;
  /// A frozen bucket holding more than this many entries (8x the target)
  /// is dense enough to re-tune the width from.
  static constexpr std::size_t kDenseBucket = 64;
  /// ...and it re-anchors only at a width at least this many times
  /// narrower, so each re-anchor in a row divides the width by 4 or more.
  static constexpr double kNarrowStep = 4.0;
  static constexpr double kMinWidth = 1e-7;
  static constexpr double kMaxWidth = 1e7;

  static std::size_t ring_slot(std::int64_t b) {
    return static_cast<std::size_t>(b & (kBuckets - 1));
  }

  Callback& slot(std::uint32_t s) { return chunks_[s >> kChunkShift]->fns[s & (kChunkSize - 1)]; }
  Link& link(std::uint32_t s) { return chunks_[s >> kChunkShift]->links[s & (kChunkSize - 1)]; }
  void grow_slots();

  /// Construct `fn` straight into a recycled slot and route it at (at, seq).
  template <typename F>
  void insert(Seconds at, std::uint64_t seq, F&& fn) {
    std::uint32_t idx = free_head_;
    if (idx != kNil) {
      free_head_ = link(idx).next;
    } else {
      if ((num_slots_ & (kChunkSize - 1)) == 0) grow_slots();
      idx = num_slots_++;
    }
    slot(idx).assign(std::forward<F>(fn));
    route(Entry{at, seq, idx});
  }

  /// Reset slot `s`'s callable and put the slot on the free list.
  void free_slot(std::uint32_t s) {
    slot(s).reset();
    link(s).next = free_head_;
    free_head_ = s;
  }

  static bool entry_greater(const Entry& a, const Entry& b) { return entry_less(b, a); }

  /// Place an entry in near_/ring/overflow_. The bucket index is
  /// floor((at - origin_) * inv_width_) — one shared monotone map, so
  /// routing can never reorder two entries across a boundary. Inline: this
  /// is the schedule_at hot path (one multiply, one compare, one list push).
  void route(const Entry& e) {
    const double q = (e.at - origin_) * inv_width_;
    if (q < static_cast<double>(cur_bucket_ + kBuckets + 1)) {
      if (q < static_cast<double>(cur_bucket_ + 1)) {
        near_push(e);
        return;
      }
      std::uint32_t& head = heads_[ring_slot(static_cast<std::int64_t>(q))];
      link(e.slot) = Link{e.at, e.seq, head};
      head = e.slot;
      ++ring_count_;
      return;
    }
    route_overflow(e);
  }

  /// Append ring bucket `i`'s entries to `out` (latest insert first) and
  /// empty the bucket.
  void drain_bucket(std::size_t i, std::vector<Entry>& out);

  void route_overflow(const Entry& e);

  /// Fire the earliest event with at <= limit. Returns false if none.
  bool pop_one(Seconds limit);

  /// Freeze the next non-empty bucket into the sorted run (merging matured
  /// overflow forward / restarting the epoch / re-anchoring as needed).
  void build_run();

  /// Ring empty, overflow not: pop a bounded sorted batch off the overflow
  /// heap, re-anchor the calendar at its minimum, and re-tune the bucket
  /// width from the batch's median inter-event gap.
  void epoch_restart();

  /// run_ holds a freshly frozen, sorted, dense bucket and near_ is empty.
  /// The width its mean gap asks for, raised so the new ring still reaches
  /// the latest ring entry: if that is at least kNarrowStep times narrower,
  /// and no one time holds more than half its entries (no width splits
  /// ties), move the run and every ring entry into scratch_ and anchor
  /// there. Returns whether it did.
  bool reanchor_dense_run();

  /// The latest time queued in the ring (ring_count_ > 0): the last
  /// non-empty bucket's list, found stepping back from the ring's end.
  Seconds latest_ring_time();

  /// Start a new map from time to bucket: bucket 0 at `origin`, buckets
  /// `width` wide (clamped), none frozen; then route every scratch_ entry
  /// through it. The one routing path of epoch_restart and the re-anchor.
  void anchor(Seconds origin, double width);

  void near_push(const Entry& e);
  void near_pop_top();

  Seconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Seq of the event running now; between runs, next_seq_ as of the run's
  /// end. Places (now_, seq < cur_seq_) have passed.
  std::uint64_t cur_seq_ = 0;
  Seconds reserved_until_ = 0;  ///< latest reserved place's time
  std::uint64_t executed_ = 0;

  std::vector<Entry> run_;     ///< sorted ascending by (at, seq)
  std::size_t run_index_ = 0;  ///< next unconsumed run entry
  std::vector<Entry> near_;    ///< 4-ary min-heap: arrivals at or behind cur_bucket_

  double origin_ = 0;          ///< anchor: bucket 0 starts here
  double width_ = 0.002;       ///< bucket width, seconds (re-tuned per anchor)
  double inv_width_ = 500.0;   ///< 1 / width_, the hot-path multiplier
  std::int64_t cur_bucket_ = -1;  ///< bucket last frozen into run_
  std::size_t ring_count_ = 0;    ///< entries in the ring
  /// Beyond the ring window: a binary min-heap by (at, seq). Far-future
  /// inserts are rare while the width suits the traffic (the ring absorbs
  /// the near term), so the O(log n) push is off the hot path, and the heap
  /// makes both the window-slide merge and the epoch restart exact — no
  /// full scans. (A re-anchor keeps the new ring reaching the latest ring
  /// entry, so on fig7_10k --blocks 20 2,134 of 1,208,669 events land
  /// here.)
  std::vector<Entry> overflow_;
  std::vector<Entry> scratch_;  ///< the batch anchor() routes (reused)

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t free_head_ = kNil;  ///< free-slot list, threaded through links

  // Observation only, kept past the hot fields.
  std::uint64_t reanchors_ = 0;
  std::uint64_t near_pops_ = 0;
  std::uint64_t overflow_pushes_ = 0;

  /// The ring: bucket b's list head at b & (kBuckets-1), kNil when empty.
  std::array<std::uint32_t, kBuckets> heads_;
};

}  // namespace bng::net
