#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace rocelab {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(30));
}

TEST(Simulator, TiesExecuteInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_at(microseconds(1), [&] {
    sim.schedule_in(microseconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, microseconds(3));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(microseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(microseconds(5), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(nanoseconds(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(12345);
  sim.cancel(kInvalidEventId);
  bool fired = false;
  sim.schedule_at(1, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.schedule_at(nanoseconds(20), [&] { fired = true; });
  sim.schedule_at(nanoseconds(10), [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(microseconds(i), [&] { ++count; });
  }
  sim.run_until(microseconds(5));
  EXPECT_EQ(count, 5);  // events at exactly the deadline still execute
  EXPECT_EQ(sim.now(), microseconds(5));
  sim.run_until(microseconds(20));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), microseconds(20));  // clock advances to deadline
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(milliseconds(7));
  EXPECT_EQ(sim.now(), milliseconds(7));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(nanoseconds(1), recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, PendingEventsExactAfterStaleCancel) {
  // Cancelling an already-fired id must not disturb the count — the stale
  // entry is gone; only the two live events remain.
  Simulator sim;
  const EventId fired = sim.schedule_at(1, [] {});
  sim.run();
  sim.cancel(fired);  // stale: no-op
  sim.schedule_at(2, [] {});
  sim.schedule_at(3, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(Simulator, CancelAfterFireDoesNotKillSlotReuse) {
  // The storage slot of a fired event is recycled for the next schedule.
  // A late cancel() of the *old* id must not cancel the *new* event that
  // happens to occupy the same slot (generation tags make ids unique).
  Simulator sim;
  const EventId old_id = sim.schedule_at(1, [] {});
  sim.run();
  bool fired = false;
  const EventId new_id = sim.schedule_at(2, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  sim.cancel(old_id);  // stale id aimed at a reused slot: must be a no-op
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, DoubleCancelThenReuseIsSafe) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(nanoseconds(10), [&] { fired = true; });
  sim.cancel(id);
  sim.cancel(id);  // second cancel of the same id: no-op
  const EventId id2 = sim.schedule_at(nanoseconds(5), [&] { fired = true; });
  sim.cancel(id);  // still aimed at the retired generation: no-op
  sim.run();
  EXPECT_TRUE(fired);
  (void)id2;
}

TEST(Simulator, ScheduleAtNowRunsAfterCurrentEvent) {
  // An event scheduled at the current timestamp from inside an event runs
  // in this same timestep, after everything already queued at that time.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(10), [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(10));
}

TEST(Simulator, InterleavedRunUntilDeadlines) {
  // run_until must be resumable at arbitrary deadlines, including deadlines
  // between events and deadlines that land exactly on an event, with
  // events scheduled between the calls.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(microseconds(2), [&] { fired.push_back(2); });
  sim.schedule_at(microseconds(6), [&] { fired.push_back(6); });
  sim.run_until(microseconds(1));
  EXPECT_TRUE(fired.empty());
  sim.run_until(microseconds(2));  // lands exactly on an event
  EXPECT_EQ(fired, (std::vector<int>{2}));
  sim.schedule_at(microseconds(4), [&] { fired.push_back(4); });
  sim.run_until(microseconds(5));
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));
  sim.run_until(microseconds(10));
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(sim.now(), microseconds(10));
}

TEST(Simulator, MoveOnlyCallback) {
  // The event core accepts move-only closures (std::function could not).
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  sim.schedule_at(1, [p = std::move(payload), &result] { result = *p + 1; });
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, LargeCaptureFallsBackToHeapBox) {
  // Closures bigger than the inline buffer still work (boxed path).
  Simulator sim;
  std::array<std::uint64_t, 16> big{};
  big[15] = 7;
  std::uint64_t out = 0;
  sim.schedule_at(1, [big, &out] { out = big[15]; });
  sim.run();
  EXPECT_EQ(out, 7u);
}

TEST(Simulator, SeededRunsProduceIdenticalExecutionOrder) {
  // Differential determinism: two identically seeded runs must execute the
  // same events in the same order, including ties, cancellations, and
  // events scheduled from within events.
  auto trace = [] {
    Simulator sim;
    std::vector<std::pair<Time, int>> log;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const Time at = nanoseconds((i * 37) % 50 + 1);
      ids.push_back(sim.schedule_at(at, [&log, &sim, i] {
        log.emplace_back(sim.now(), i);
      }));
    }
    for (int i = 0; i < 200; i += 3) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.schedule_at(nanoseconds(25), [&] {
      sim.schedule_in(nanoseconds(5), [&log, &sim] { log.emplace_back(sim.now(), -1); });
    });
    sim.run();
    return log;
  };
  const auto a = trace();
  const auto b = trace();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// Property test of the event queue against a reference model: a sorted set
// of (time, schedule order), which is the order the queue promises. Random
// interleavings of schedule_at (same-time ties, near and far future),
// cancels (of pending and of already-fired ids), run_until peeks followed
// by inserts below the peeked top, events scheduling events, and enough
// far-timer re-arm churn to trigger compaction. Every event that fires must
// be the model's minimum at that moment.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t r = rng_() % 100;
      if (r < 35) {
        schedule(sim_.now() + delta());
      } else if (r < 50) {
        cancel_random();
      } else if (r < 70) {
        peek_then_insert_below();
      } else {
        for (int k = 0; k < 16; ++k) rearm_timer();  // an ACK burst
      }
      ASSERT_EQ(sim_.pending_events(), pending_.size());
      ASSERT_GE(sim_.queued_entries(), sim_.pending_events());
    }
    sim_.run();
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
  }

  int fired() const { return fired_; }
  int below_top_inserts() const { return below_top_inserts_; }
  int compactions() const { return compactions_; }

 private:
  Time delta() {
    switch (rng_() % 5) {
      case 0: return 0;                                             // a same-time tie
      case 1: return static_cast<Time>(rng_() % 1000);              // sub-ns
      case 2: return static_cast<Time>(rng_() % microseconds(2));   // near term
      case 3: return microseconds(50) + static_cast<Time>(rng_() % milliseconds(5));
      default: return static_cast<Time>(rng_() % (Time{1} << 40));  // very far
    }
  }

  void schedule(Time at) {
    const std::uint64_t order = handles_.size();
    const std::size_t before = sim_.queued_entries();
    const EventId id = sim_.schedule_at(at, [this, at, order] { fire(at, order); });
    // Compaction only ever runs inside schedule_at, and is the one way the
    // queue can shrink there.
    if (sim_.queued_entries() < before) ++compactions_;
    // The trigger keeps the stale share at or below half the queue.
    ASSERT_LE(sim_.queued_entries(), std::max<std::size_t>(128, 2 * sim_.pending_events()));
    handles_.push_back({at, id});
    pending_.emplace(at, order);
  }

  void fire(Time at, std::uint64_t order) {
    ++fired_;
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(*pending_.begin(), std::make_pair(at, order));
    ASSERT_EQ(sim_.now(), at);
    pending_.erase(pending_.begin());
    if (rng_() % 4 == 0) schedule(sim_.now() + delta());  // events scheduling events
  }

  void cancel_random() {
    if (handles_.empty()) return;
    const std::size_t i = rng_() % handles_.size();
    sim_.cancel(handles_[i].second);  // a no-op when it already fired
    pending_.erase({handles_[i].first, static_cast<std::uint64_t>(i)});
  }

  void peek_then_insert_below() {
    // run_until stops with the first event past the deadline settled at the
    // front of the queue; the inserts that follow land below it.
    sim_.run_until(sim_.now() + static_cast<Time>(rng_() % microseconds(3)));
    if (pending_.empty()) return;
    const Time top = pending_.begin()->first;
    const int n = 1 + static_cast<int>(rng_() % 3);
    for (int k = 0; k < n; ++k) {
      const Time at = sim_.now() + static_cast<Time>(rng_() % (top - sim_.now() + 1));
      if (at < top) ++below_top_inserts_;
      schedule(at);
    }
  }

  void rearm_timer() {
    // The retransmit-timer pattern: cancel a far timer and arm its successor.
    const std::size_t qp = rng_() % timers_.size();
    if (timers_[qp] != kInvalidEventId) {
      const std::size_t i = timer_orders_[qp];
      sim_.cancel(timers_[qp]);
      pending_.erase({handles_[i].first, static_cast<std::uint64_t>(i)});
    }
    timer_orders_[qp] = handles_.size();
    schedule(sim_.now() + microseconds(100) + static_cast<Time>(rng_() % microseconds(100)));
    timers_[qp] = handles_.back().second;
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::set<std::pair<Time, std::uint64_t>> pending_;  // the reference model
  std::vector<std::pair<Time, EventId>> handles_;     // indexed by schedule order
  std::array<EventId, 64> timers_{};
  std::array<std::size_t, 64> timer_orders_{};
  int fired_ = 0;
  int below_top_inserts_ = 0;
  int compactions_ = 0;
};

TEST(EventQueueModel, RandomInterleavingsMatchSortedSet) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    QueueModel model(seed);
    model.run(5000);
    if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
    EXPECT_GT(model.fired(), 1000) << "seed " << seed;
    EXPECT_GT(model.below_top_inserts(), 100) << "seed " << seed;
    EXPECT_GT(model.compactions(), 0) << "seed " << seed;
  }
}

TEST(EventQueueModel, InsertBelowPeekedTopAcrossDistantTimes) {
  // The settled top sits far ahead; inserts land at times that differ from
  // it in low, middle and high key bits, interleaved with peeks and pops.
  Simulator sim;
  std::vector<Time> fired;
  auto log = [&] { fired.push_back(sim.now()); };
  sim.schedule_at(Time{1} << 40, log);
  sim.schedule_at((Time{1} << 40) + 1, log);
  sim.run_until(microseconds(1));  // settles the 2^40 event at the front
  for (const Time at : {Time{1} << 39, microseconds(2), (Time{1} << 40) - 1, microseconds(2) + 1,
                        microseconds(1), Time{1} << 20}) {
    sim.schedule_at(at, log);
  }
  sim.run_until(microseconds(2));  // pops 1 us, 2^20 ps and 2 us; settles 2 us + 1
  sim.schedule_at(microseconds(2), log);
  sim.run();
  const std::vector<Time> expect = {microseconds(1),     Time{1} << 20,       microseconds(2),
                                    microseconds(2),     microseconds(2) + 1, Time{1} << 39,
                                    (Time{1} << 40) - 1, Time{1} << 40,       (Time{1} << 40) + 1};
  EXPECT_EQ(fired, expect);
}

}  // namespace
}  // namespace rocelab
