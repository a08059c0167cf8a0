#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bng::net {
namespace {

TEST(EventQueue, StartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInUsesRelativeTime) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(10.0, [&] {
    q.schedule_in(5.0, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(10.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(3.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly t_end run
  EXPECT_EQ(q.now(), 2.0);
  q.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 10.0);  // advances to t_end even when idle
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) q.schedule_in(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), 99.0);
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(i, [] {});
  q.run_all();
  EXPECT_EQ(q.events_executed(), 5u);
}

TEST(EventQueue, RunUntilDoesNotRegressTime) {
  EventQueue q;
  q.run_until(50.0);
  EXPECT_EQ(q.now(), 50.0);
  q.run_until(10.0);  // earlier bound: nothing happens, time keeps its value
  EXPECT_EQ(q.now(), 50.0);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  double last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    double t = static_cast<double>((i * 7919) % 1000);
    q.schedule_at(t, [&, t] {
      if (t < last) monotonic = false;
      last = t;
    });
  }
  q.run_all();
  EXPECT_TRUE(monotonic);
}

// --- Regression guards for the lazy-queue rewrite ---------------------------

// FIFO tie-break must hold even when equal-timestamp events are scheduled in
// separate waves interleaved with execution (i.e. across internal run
// rebuilds), not just in one batch.
TEST(EventQueue, EqualTimesFifoAcrossWaves) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) q.schedule_at(100.0, [&order, i] { order.push_back(i); });
  q.run_until(50.0);  // force internal state churn before the second wave
  for (int i = 1000; i < 2000; ++i)
    q.schedule_at(100.0, [&order, i] { order.push_back(i); });
  q.run_all();
  ASSERT_EQ(order.size(), 2000u);
  for (int i = 0; i < 2000; ++i) EXPECT_EQ(order[i], i);
}

// An event scheduled (from inside a callback) earlier than already-pending
// events must still fire in exact time order.
TEST(EventQueue, LateShortDelayInsertKeepsOrder) {
  EventQueue q;
  std::vector<double> fired;
  for (int i = 1; i <= 2000; ++i) {
    const double t = static_cast<double>(i);
    q.schedule_at(t, [&q, &fired, t] {
      fired.push_back(t);
      // Jump the queue: lands between this event and the next integer tick.
      if (fired.size() == 1) q.schedule_in(0.5, [&fired, t] { fired.push_back(t + 0.5); });
    });
  }
  q.run_all();
  ASSERT_EQ(fired.size(), 2001u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired[1], 1.5);
}

/// A callable with a prefetch hook: logs its run as `id` and its hint as
/// -1 - id.
struct HintedEvent {
  std::vector<int>* log;
  int id;
  void operator()() const { log->push_back(id); }
  void prefetch() const { log->push_back(-1 - id); }
};

// pop_one hints the run head before it runs the event ahead of it.
TEST(EventQueue, PopHintsTheNextRunEntryBeforeRunningTheCurrentOne) {
  EventQueue q;
  std::vector<int> log;
  for (int id = 0; id < 3; ++id) q.schedule_at(1.0, HintedEvent{&log, id});
  q.run_all();
  EXPECT_EQ(log, (std::vector<int>{-2, 0, -3, 1, 2}));
  EXPECT_EQ(q.events_executed(), 3u);
}

/// What one run of the differential script saw.
struct DifferentialRun {
  std::vector<std::uint64_t> fired;     ///< seqs in execution order
  std::vector<std::uint64_t> expected;  ///< the reference model's order
  std::uint64_t executed = 0;
  std::size_t hints = 0;
};

/// A mixed schedule/run workload. With `hooked`, every other event is a
/// callable with a prefetch hook instead of a lambda.
DifferentialRun run_differential_script(bool hooked) {
  struct RefEvent {
    double at;
    std::uint64_t seq;
  };
  struct Hooked {
    DifferentialRun* run;
    std::uint64_t seq;
    void operator()() const { run->fired.push_back(seq); }
    void prefetch() const { ++run->hints; }
  };
  DifferentialRun out;
  EventQueue q;
  std::vector<RefEvent> ref;
  std::uint64_t rng = 0x243f6a8885a308d3ull;  // deterministic LCG
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  std::uint64_t seq = 0;
  double window_start = 0;
  for (int round = 0; round < 50; ++round) {
    // Schedule a burst with clustered times (forces equal-time tie-breaks).
    for (int i = 0; i < 200; ++i) {
      const double at = window_start + static_cast<double>(next() % 40);
      const std::uint64_t s = seq++;
      if (hooked && s % 2 == 0) {
        q.schedule_at(at, Hooked{&out, s});
      } else {
        q.schedule_at(at, [&out, s] { out.fired.push_back(s); });
      }
      ref.push_back({at, s});
    }
    // Advance partway.
    window_start += 20.0;
    q.run_until(window_start);
  }
  q.run_all();
  out.executed = q.events_executed();

  std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  for (const auto& e : ref) out.expected.push_back(e.seq);
  return out;
}

// Differential stress test: a mixed schedule/run workload must replay
// in exactly the order of a naive reference model (sorted by (time, seq)).
TEST(EventQueue, DifferentialAgainstReferenceModel) {
  const DifferentialRun run = run_differential_script(false);
  ASSERT_EQ(run.fired.size(), run.expected.size());
  for (std::size_t i = 0; i < run.expected.size(); ++i)
    EXPECT_EQ(run.fired[i], run.expected[i]);
  EXPECT_EQ(run.executed, run.fired.size());
}

// The same script with prefetch hooks on half its events: the hints move no
// event, and the run matches the one whose callables have none.
TEST(EventQueue, PrefetchHooksMoveNoEvent) {
  const DifferentialRun plain = run_differential_script(false);
  const DifferentialRun hooked = run_differential_script(true);
  EXPECT_EQ(hooked.fired, hooked.expected);
  EXPECT_EQ(hooked.fired, plain.fired);
  EXPECT_EQ(hooked.executed, plain.executed);
  EXPECT_EQ(plain.hints, 0u);
  EXPECT_GT(hooked.hints, 1000u);  // not vacuous: the hooks ran
}

// Far-future spill/refill differential: delays spanning eight orders of
// magnitude force every calendar path at once — near-term bucket inserts,
// overflow-heap spills, window slides, epoch restarts with width retunes —
// interleaved with equal-time bursts. Execution order must still match the
// naive (time, seq) reference exactly.
TEST(EventQueue, DifferentialFarFutureSpillRefill) {
  struct RefEvent {
    double at;
    std::uint64_t seq;
  };
  EventQueue q;
  std::vector<RefEvent> ref;
  std::vector<std::uint64_t> fired;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  std::uint64_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) {
      // Magnitude 10^0 .. 10^7 delays, plus exact collisions every 5th event.
      const double mag = std::pow(10.0, static_cast<double>(next() % 8));
      double at = q.now() + mag * (1.0 + static_cast<double>(next() % 97) / 97.0);
      if (i % 5 == 0) at = q.now() + 64.0;  // same-timestamp FIFO pressure
      const std::uint64_t s = seq++;
      q.schedule_at(at, [&fired, s] { fired.push_back(s); });
      ref.push_back({at, s});
    }
    // Drain far enough to pull overflow entries back through epoch restarts.
    q.run_until(q.now() + std::pow(10.0, static_cast<double>(next() % 7)));
  }
  q.run_all();

  std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  ASSERT_EQ(fired.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(fired[i], ref[i].seq);
}

// --- The dense-bucket re-anchor --------------------------------------------

/// A script whose events log their seq, and whose callbacks may schedule
/// follow-ups at zero and sub-width delays. Every schedule goes through
/// add(), so the reference seq of an event is its place in `ref`.
class ReanchorScript {
 public:
  struct RefEvent {
    double at;
    std::uint64_t seq;
  };

  /// A sparse prefix widens the calendar through an epoch restart; then
  /// bursts of 250 events within 1 s freeze into one wide bucket while
  /// later entries wait in the ring past it and far-future ones in overflow.
  void run_bursts() {
    for (int i = 1; i <= 16; ++i) add(50.0 * i, 0);
    for (int i = 0; i < 4; ++i) add(1e6 + i, 0);  // far future: stays in overflow
    q.run_until(60.0);  // the restart at t = 50 widens the buckets to ~400 s
    for (int round = 0; round < 6; ++round) {
      const double t0 = 1000.0 + 700.0 * round;
      burst(t0);
      add(t0 + 400.0, 0);  // ring entries past the burst's bucket
      add(t0 + 3000.0, 0);
      q.run_until(t0 + 0.5);  // stop part-way through the burst
    }
    q.run_all();
  }

  /// 250 events within [t0, t0 + 1), each with follow-ups.
  void burst(double t0) {
    for (int i = 0; i < 250; ++i) add(t0 + static_cast<double>(next() % 1000) / 1000.0, 2);
  }

  /// The execution order a correct queue must produce: every scheduled
  /// event sorted by (at, seq).
  [[nodiscard]] std::vector<std::uint64_t> expected() const { return reference_order(ref); }

  /// The seqs of `events` sorted by (at, seq).
  static std::vector<std::uint64_t> reference_order(std::vector<RefEvent> events) {
    std::sort(events.begin(), events.end(), [](const RefEvent& a, const RefEvent& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    });
    std::vector<std::uint64_t> out;
    for (const RefEvent& e : events) out.push_back(e.seq);
    return out;
  }

  void add(double at, int depth) {
    const std::uint64_t s = ref.size();
    ref.push_back({at, s});
    q.schedule_at(at, [this, s, depth] {
      fired.push_back(s);
      if (depth == 0) return;
      const std::uint64_t r = next();
      if (r % 4 == 0) add(q.now(), depth - 1);  // zero delay: behind the frozen bucket
      if (r % 3 == 0) add(q.now() + 1e-4 * static_cast<double>((r >> 8) % 50), depth - 1);
    });
  }

  EventQueue q;
  std::vector<RefEvent> ref;
  std::vector<std::uint64_t> fired;

 private:
  std::uint64_t next() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }
  std::uint64_t rng_ = 0x452821e638d01377ull;
};

// A dense bucket re-anchors the calendar at a narrower width, moving every
// ring entry; the run still matches the (at, seq) reference exactly.
TEST(EventQueue, DenseBucketReanchorKeepsTheReferenceOrder) {
  ReanchorScript script;
  script.run_bursts();
  EXPECT_EQ(script.fired, script.expected());
  EXPECT_EQ(script.q.events_executed(), script.ref.size());
  EXPECT_EQ(script.fired.size(), script.ref.size());
  EXPECT_GT(script.q.reanchors(), 0u);  // not vacuous: the re-anchor ran
  EXPECT_GT(script.q.near_pops(), 0u);  // zero-delay follow-ups used the near heap
  EXPECT_EQ(script.q.pending(), 0u);
}

// A burst mostly tied at one time (a gossip wave at constant latency) is
// frozen as it is: no width splits a tie, so the calendar must not
// re-anchor at ever narrower widths chasing one.
TEST(EventQueue, TiedBurstDoesNotReanchor) {
  ReanchorScript script;
  const double tie = 0.05608;
  for (int i = 0; i < 240; ++i) script.add(tie, 0);
  for (int i = 1; i <= 3; ++i) {  // stragglers in the same 2 ms bucket
    script.add(tie - 1e-5 * i, 0);
    script.add(tie + 1e-5 * i, 1);
  }
  script.q.run_all();
  EXPECT_EQ(script.fired, script.expected());
  EXPECT_EQ(script.q.events_executed(), script.ref.size());
  EXPECT_EQ(script.q.reanchors(), 0u);
}

// The re-anchor keeps the new ring wide enough to reach the latest entry
// already in the ring. A dense burst freezes while a ring entry waits about
// 0.9 of the ring's span ahead: the width the burst's gap asks for would
// leave that entry past the new ring's end, and the width that reaches it
// is not 4x narrower, so the calendar stays as it is. Once that entry has
// run, a burst whose ring reaches only 400 s ahead re-anchors, at the width
// that keeps that entry in the new ring. Neither sends an entry to the
// overflow heap.
// Mutants it catches: a rule without the floor re-anchors at the first
// burst and pushes the far entry to the overflow heap; the floor without
// the 4x re-check never returns from that burst's freeze, re-anchoring at
// 0.9x the width over and over.
TEST(EventQueue, ReanchorKeepsTheRingReachingItsLatestEntry) {
  ReanchorScript script;
  for (int i = 1; i <= 16; ++i) script.add(50.0 * i, 0);
  script.q.run_until(60.0);  // the restart at t = 50 sets 400 s buckets
  const std::uint64_t pushes = script.q.overflow_pushes();  // the 16 above, before it
  const double span = 2048 * 400.0;
  const double far = 1000.0 + 0.9 * span;
  script.add(far, 0);
  script.burst(1000.0);
  script.q.run_until(1000.5);
  EXPECT_EQ(script.q.reanchors(), 0u);
  EXPECT_EQ(script.q.overflow_pushes(), pushes);
  script.q.run_until(far);  // the far entry has run; the ring is empty
  const double t1 = far + 1000.0;
  script.add(t1 + 400.0, 0);
  script.burst(t1);
  script.q.run_all();
  EXPECT_EQ(script.fired, script.expected());
  EXPECT_EQ(script.q.events_executed(), script.ref.size());
  EXPECT_EQ(script.q.reanchors(), 1u);  // the second burst, not the first
  EXPECT_EQ(script.q.overflow_pushes(), pushes);
  EXPECT_EQ(script.q.pending(), 0u);
}

// --- Bucket lists through the event slots -----------------------------------

/// Events that log their seq and count each run at which pending() was not
/// the number of events scheduled and not yet run. An event of depth > 0
/// may schedule follow-ups one lap of the ring ahead (into the ring slot
/// its bucket just left), at zero delay (the near heap) and ten laps ahead
/// (the overflow heap). Every schedule goes through add(), so the reference
/// seq of an event is its place in `ref`.
class LapScript {
 public:
  static constexpr double kLap = 2048 * 0.002;  ///< the ring's span at the initial width

  void add(double at, int depth) {
    const std::uint64_t s = ref.size();
    ref.push_back({at, s});
    q.schedule_at(at, [this, s, depth] {
      fired.push_back(s);
      if (q.pending() != unrun()) ++pending_mismatches;
      if (depth == 0) return;
      const std::uint64_t r = next();
      if (r % 2 == 0) add(q.now() + kLap, depth - 1);
      if (r % 5 == 0) add(q.now(), depth - 1);
      if (r % 7 == 0) add(q.now() + 10 * kLap, depth - 1);
    });
  }

  /// Events scheduled and not yet run (the one running counts as run).
  [[nodiscard]] std::size_t unrun() const { return ref.size() - fired.size(); }

  [[nodiscard]] std::vector<std::uint64_t> expected() const {
    return ReanchorScript::reference_order(ref);
  }

  std::uint64_t next() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }

  EventQueue q;
  std::vector<ReanchorScript::RefEvent> ref;
  std::vector<std::uint64_t> fired;
  std::size_t pending_mismatches = 0;

 private:
  std::uint64_t rng_ = 0x13198a2e03707344ull;
};

// A bucket is a list threaded through its events' slots, and a slot is
// reused as soon as its event has run. Many events land in the same ring
// slots lap after lap (12 bucket positions, each hit in four laps per
// round, plus follow-ups one lap ahead into the slot just frozen), mixed
// with near-heap and overflow traffic, over more than ten laps of
// kBuckets buckets. The run must match the (at, seq) reference, and
// pending() must be exact at every event and between rounds.
// Mutants it catches: a drain that skips --ring_count_ fails the pending
// checks in the first round (every other queue test that drains its
// events hangs on it, scanning an empty ring); a drain that leaves the
// bucket's head in place walks a stale list a lap later and runs a freed
// slot (bad_function_call).
TEST(EventQueue, LapReuseKeepsTheReferenceOrderAndAnExactPendingCount) {
  LapScript script;
  for (int round = 0; round < 16; ++round) {
    const double t0 = script.q.now();
    for (int i = 0; i < 48; ++i) {
      const double at = t0 + LapScript::kLap * static_cast<double>(i / 12) +
                        0.002 * (170.0 * static_cast<double>(i % 12) +
                                 static_cast<double>(script.next() % 100) / 100.0);
      script.add(at, 3);
    }
    script.q.run_until(t0 + 0.6 * LapScript::kLap);
    ASSERT_EQ(script.q.pending(), script.unrun());
    ASSERT_EQ(script.pending_mismatches, 0u);
  }
  script.q.run_all();
  EXPECT_EQ(script.fired, script.expected());
  EXPECT_EQ(script.q.events_executed(), script.ref.size());
  EXPECT_EQ(script.q.pending(), 0u);
  EXPECT_EQ(script.pending_mismatches, 0u);
  // Not vacuous: every structure took entries, and the slots were reused.
  EXPECT_GT(script.q.near_pops(), 0u);
  EXPECT_GT(script.q.overflow_pushes(), 0u);
  EXPECT_LT(script.q.slots() * 4, script.ref.size());
}

// --- Reserved places: reserve_seq / schedule_reserved / passed --------------

TEST(EventQueue, ReservedPlaceRunsWhereAnEventScheduledThenWould) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(0); });
  const std::uint64_t place = q.reserve_seq(1.0);
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_at(0.5, [&] {
    // Filled after two later schedulings, it still runs between them.
    q.schedule_reserved(1.0, place, [&] { order.push_back(1); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.events_executed(), 4u);
}

TEST(EventQueue, ScheduleReservedOnAPassedPlaceThrows) {
  EventQueue q;
  const std::uint64_t early = q.reserve_seq(1.0);
  const std::uint64_t tied = q.reserve_seq(2.0);
  bool checked = false;
  q.schedule_at(2.0, [&] {
    // Same time, lower seq: the place ordered before this event.
    EXPECT_TRUE(q.passed(2.0, tied));
    EXPECT_THROW(q.schedule_reserved(2.0, tied, [] {}), std::logic_error);
    checked = true;
  });
  EXPECT_FALSE(q.passed(1.0, early));
  q.run_until(1.5);
  EXPECT_TRUE(q.passed(1.0, early));
  EXPECT_THROW(q.schedule_reserved(1.0, early, [] {}), std::logic_error);
  EXPECT_FALSE(q.passed(2.0, tied));
  q.run_all();
  EXPECT_TRUE(checked);
}

TEST(EventQueue, RunUntilPassesEveryPlaceUpToItsEnd) {
  EventQueue q;
  const std::uint64_t inside = q.reserve_seq(1.0);
  const std::uint64_t at_end = q.reserve_seq(2.0);
  const std::uint64_t beyond = q.reserve_seq(2.5);
  q.run_until(2.0);  // no events at all: the clock still moves to the end
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_TRUE(q.passed(1.0, inside));
  EXPECT_TRUE(q.passed(2.0, at_end));
  EXPECT_FALSE(q.passed(2.5, beyond));
  // A place reserved after the run, at the clock's own time, is still ahead.
  const std::uint64_t fresh = q.reserve_seq(2.0);
  EXPECT_FALSE(q.passed(2.0, fresh));
  // An earlier bound leaves the clock and the passed places alone.
  q.run_until(1.0);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_FALSE(q.passed(2.0, fresh));
  EXPECT_FALSE(q.passed(2.5, beyond));
}

TEST(EventQueue, RunAllEndsAtTheLatestReservedPlace) {
  EventQueue q;
  q.schedule_at(3.0, [] {});
  (void)q.reserve_seq(7.0);  // never filled: a skipped delivery
  (void)q.reserve_seq(5.0);
  q.run_all();
  EXPECT_EQ(q.now(), 7.0);  // where it ends had the place held an event
  EXPECT_EQ(q.events_executed(), 1u);
  EXPECT_THROW((void)q.reserve_seq(6.0), std::invalid_argument);

  EventQueue later;
  (void)later.reserve_seq(1.0);
  later.schedule_at(4.0, [] {});
  later.run_all();
  EXPECT_EQ(later.now(), 4.0);  // the last event is later than every place
}

// Twin runs of one random script. In the `direct` twin every place is a
// real event, scheduled when the place is taken, that logs only if a filler
// claimed it before it ran. In the `reserved` twin a place is reserve_seq'd
// and a filler schedules it only if it has not passed. Both twins must log
// the same sequence and end at the same time: a filled place runs exactly
// where an event scheduled at reservation time would, and an unfilled one
// leaves no trace but the clock.
class PlaceTwin {
 public:
  explicit PlaceTwin(bool reserve) : reserve_(reserve) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t r = rng_();
      const Seconds at = 0.25 * static_cast<double>((r >> 8) % 20);
      if (r % 3 == 0) {
        take_place(at);
      } else {
        add_event(at);
      }
    }
    q_.run_all();
  }

  std::vector<int> log;
  int claims = 0;
  int refused = 0;
  [[nodiscard]] Seconds end() const { return q_.now(); }

 private:
  struct Place {
    Seconds at;
    std::uint64_t seq = 0;
    bool ran = false;
    bool claimed = false;
  };

  void take_place(Seconds at) {
    const int p = static_cast<int>(places_.size());
    places_.push_back(Place{at});
    if (reserve_) {
      places_[p].seq = q_.reserve_seq(at);
      return;
    }
    q_.schedule_at(at, [this, p] {
      places_[p].ran = true;
      if (places_[p].claimed) log.push_back(-1 - p);
    });
  }

  void claim(int p) {
    Place& place = places_[p];
    if (place.claimed) return;
    const bool gone = reserve_ ? q_.passed(place.at, place.seq) : place.ran;
    if (gone) {
      ++refused;
      return;
    }
    place.claimed = true;
    ++claims;
    if (reserve_) q_.schedule_reserved(place.at, place.seq, [this, p] { log.push_back(-1 - p); });
  }

  void add_event(Seconds at) {
    const int id = next_id_++;
    q_.schedule_at(at, [this, id] {
      log.push_back(id);
      const std::uint64_t r = rng_();
      if (r % 3 == 0) take_place(q_.now() + 0.25 * static_cast<double>((r >> 8) % 3));
      if (r % 2 == 0 && !places_.empty())
        claim(static_cast<int>((r >> 16) % places_.size()));
      if (r % 5 == 0 && id < 2000) add_event(q_.now() + 0.25 * static_cast<double>((r >> 24) % 2));
    });
  }

  bool reserve_;
  EventQueue q_;
  std::vector<Place> places_;
  int next_id_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t rng_() {  // splitmix64: the same stream in both twins
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

TEST(EventQueue, ReservedPlacesMatchEventsScheduledAtReservation) {
  PlaceTwin direct(false);
  PlaceTwin reserved(true);
  direct.run(600);
  reserved.run(600);
  EXPECT_EQ(reserved.log, direct.log);
  EXPECT_EQ(reserved.end(), direct.end());
  EXPECT_EQ(reserved.claims, direct.claims);
  // Not vacuous: places were filled, and some were refused as passed.
  EXPECT_GT(reserved.claims, 20);
  EXPECT_GT(reserved.refused, 20);
}

}  // namespace
}  // namespace bng::net
