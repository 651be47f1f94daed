// Unit tests for the discrete-event core: Simulator, BinaryHeapEventQueue
// and PeriodicTimer — including property sweeps asserting the heap delivers
// the identical event ordering as HierarchicalTimingWheel, the independent
// oracle implementation kept in tests/timing_wheel.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "timing_wheel.hpp"

namespace haechi::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.EventsRun(), 3u);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(10, [&] { ++ran; });
  sim.ScheduleAt(20, [&] { ++ran; });
  sim.ScheduleAt(21, [&] { ++ran; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(ran, 3);
  // No events remain; clock advances to the deadline.
  EXPECT_EQ(sim.Now(), 100);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, SchedulingInThePastFiresImmediately) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { fired_at = sim.Now(); });  // "earlier" than now
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(1, [&] { ++ran; });
  sim.ScheduleAt(2, [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(ran, 2);
}

TEST(PeriodicTimer, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sim, 10, [&] { fires.push_back(sim.Now()); });
  timer.Start();
  sim.RunUntil(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
  timer.Stop();
  sim.RunUntil(100);
  EXPECT_EQ(fires.size(), 3u);
}

TEST(PeriodicTimer, CallbackMayStopTheTimer) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] {
    if (++fires == 2) timer.Stop();
  });
  timer.Start();
  sim.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.Running());
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.Start();
  sim.RunUntil(25);
  timer.Stop();
  timer.Start();
  sim.RunUntil(45);
  EXPECT_EQ(fires, 4);  // 10, 20, 35, 45
}

// --- event queue implementations ------------------------------------------

template <typename Queue>
class EventQueueTest : public ::testing::Test {
 protected:
  Queue queue_;
};

using QueueTypes =
    ::testing::Types<BinaryHeapEventQueue, HierarchicalTimingWheel>;
TYPED_TEST_SUITE(EventQueueTest, QueueTypes);

TYPED_TEST(EventQueueTest, PopsInTimeThenIdOrder) {
  auto& q = this->queue_;
  q.Schedule(500, [] {});
  q.Schedule(100, [] {});
  q.Schedule(100, [] {});
  q.Schedule(300, [] {});
  EXPECT_EQ(q.Size(), 4u);
  std::vector<std::pair<SimTime, EventId>> popped;
  while (!q.Empty()) {
    Event e = q.PopNext();
    popped.emplace_back(e.time, e.id);
  }
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.front().first, 100);
  EXPECT_EQ(popped.back().first, 500);
}

TYPED_TEST(EventQueueTest, PeekDoesNotPop) {
  auto& q = this->queue_;
  q.Schedule(7, [] {});
  EXPECT_EQ(q.PeekTime(), 7);
  EXPECT_EQ(q.PeekTime(), 7);
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext();
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TYPED_TEST(EventQueueTest, CancelRemovesEvent) {
  auto& q = this->queue_;
  const EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  Event e = q.PopNext();
  EXPECT_EQ(e.time, 20);
  EXPECT_TRUE(q.Empty());
}

TYPED_TEST(EventQueueTest, CancelInvalidIdsReturnsFalse) {
  auto& q = this->queue_;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TYPED_TEST(EventQueueTest, PopOnEmptyReturnsInvalid) {
  Event e = this->queue_.PopNext();
  EXPECT_EQ(e.id, kInvalidEventId);
}

TYPED_TEST(EventQueueTest, FarFutureEvents) {
  auto& q = this->queue_;
  // Beyond the timing wheel's direct horizon (forces the overflow path).
  const SimTime far = Seconds(36000);
  q.Schedule(far, [] {});
  q.Schedule(5, [] {});
  EXPECT_EQ(q.PopNext().time, 5);
  EXPECT_EQ(q.PopNext().time, far);
}

TEST(QueueEquivalence, IdenticalOrderUnderRandomWorkload) {
  // Property: for any schedule/cancel sequence, both queues pop the exact
  // same (time, id) sequence.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    BinaryHeapEventQueue heap;
    HierarchicalTimingWheel wheel;
    std::vector<EventId> live;
    std::vector<std::pair<SimTime, EventId>> heap_popped, wheel_popped;
    SimTime now = 0;

    for (int step = 0; step < 5000; ++step) {
      const auto action = rng.NextBelow(10);
      if (action < 6) {
        // Schedule at a mix of horizons: sub-tick, short, medium, long.
        const SimTime when =
            now + static_cast<SimTime>(rng.NextBelow(1) == 0
                                           ? rng.NextBelow(Millis(50))
                                           : rng.NextBelow(200));
        const EventId h = heap.Schedule(when, [] {});
        const EventId w = wheel.Schedule(when, [] {});
        ASSERT_EQ(h, w);
        live.push_back(h);
      } else if (action < 8 && !live.empty()) {
        const auto idx = rng.NextBelow(live.size());
        const EventId id = live[idx];
        EXPECT_EQ(heap.Cancel(id), wheel.Cancel(id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (!heap.Empty()) {
        Event he = heap.PopNext();
        Event we = wheel.PopNext();
        ASSERT_EQ(he.time, we.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(he.id, we.id);
        now = he.time;
        heap_popped.emplace_back(he.time, he.id);
        wheel_popped.emplace_back(we.time, we.id);
        std::erase(live, he.id);
      }
    }
    while (!heap.Empty()) {
      Event he = heap.PopNext();
      Event we = wheel.PopNext();
      ASSERT_EQ(he.time, we.time);
      ASSERT_EQ(he.id, we.id);
    }
    EXPECT_TRUE(wheel.Empty());
  }
}

TEST(TimingWheel, StressManyTimescales) {
  HierarchicalTimingWheel wheel;
  Rng rng(99);
  std::vector<SimTime> times;
  for (int i = 0; i < 20000; ++i) {
    // Mix of ns, µs, ms, s, and hour horizons.
    static constexpr SimTime kSpans[] = {100,        Micros(10), Millis(5),
                                         Seconds(2), Seconds(7200)};
    const SimTime t = static_cast<SimTime>(
        rng.NextBelow(static_cast<std::uint64_t>(kSpans[rng.NextBelow(5)])));
    times.push_back(t);
    wheel.Schedule(t, [] {});
  }
  std::sort(times.begin(), times.end());
  for (const SimTime expected : times) {
    Event e = wheel.PopNext();
    ASSERT_EQ(e.time, expected);
  }
  EXPECT_TRUE(wheel.Empty());
}

// Simulator's event loop over the timing wheel: the oracle arm of the
// equivalence tests below (Simulator itself always runs on the heap).
class WheelSimulator {
 public:
  [[nodiscard]] SimTime Now() const { return now_; }
  EventId ScheduleAt(SimTime time, EventFn fn) {
    return wheel_.Schedule(time < now_ ? now_ : time, std::move(fn));
  }
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    return wheel_.Schedule(now_ + delay, std::move(fn));
  }
  bool Cancel(EventId id) { return wheel_.Cancel(id); }
  std::uint64_t RunUntil(SimTime deadline) {
    std::uint64_t ran = 0;
    while (wheel_.PeekTime() <= deadline) {
      Event event = wheel_.PopNext();
      now_ = event.time;
      event.fn();
      ++ran;
    }
    if (now_ < deadline) now_ = deadline;
    return ran;
  }

 private:
  HierarchicalTimingWheel wheel_;
  SimTime now_ = 0;
};

TEST(SimulatorWithWheel, ProducesSameResultsAsHeap) {
  // A miniature "protocol": a 1 ms self-rearming timer plus event chains;
  // final state must be identical on the heap and on the wheel.
  auto run = [](auto& sim) {
    std::uint64_t checksum = 0;
    std::function<void()> tick = [&] {
      sim.ScheduleAfter(Millis(1), tick);  // rearm first, as PeriodicTimer
      checksum = checksum * 31 + static_cast<std::uint64_t>(sim.Now());
    };
    sim.ScheduleAfter(Millis(1), tick);
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(i * Micros(37), [&sim, &checksum] {
        checksum ^= static_cast<std::uint64_t>(sim.Now());
        sim.ScheduleAfter(Micros(11), [&checksum] { checksum += 7; });
      });
    }
    sim.RunUntil(Millis(20));
    return checksum;
  };
  Simulator heap;
  WheelSimulator wheel;
  EXPECT_EQ(run(heap), run(wheel));
}

// Randomized cancel/reschedule fuzz: callbacks executing inside RunUntil
// cancel other pending events (some already fired, some self-cancelled
// twice) and reschedule replacements. The fired sequence (tag, time) and
// the cancellation outcomes must be identical on the heap and the wheel
// for every seed — this pins the Cancel-while-draining semantics of both
// queues' lazy deletion. A slice of the events is parked far in the future
// and most of those are cancelled early, so cancelled heap records stay
// buried for the whole run while the callback slots of fired events are
// recycled around them: no cancelled tag may ever fire, no tag may fire
// twice, and every callback (and its captures) must be released.
TEST(SimulatorWithWheel, CancelRescheduleFuzzMatchesHeap) {
  struct RunLog {
    std::vector<std::pair<int, SimTime>> fired;
    std::uint64_t cancel_hits = 0;    // Cancel returned true
    std::uint64_t cancel_misses = 0;  // already fired or double-cancel
    std::uint64_t events_run = 0;

    bool operator==(const RunLog&) const = default;
  };

  auto run = [](auto& sim, std::uint64_t seed) {
    Rng rng(seed);
    RunLog log;
    std::vector<EventId> pending;
    std::unordered_map<EventId, int> tag_of;
    std::set<int> cancelled;
    std::set<int> fired;
    int next_tag = 0;
    const auto captures = std::make_shared<int>(0);

    std::function<void(int)> fire;
    const auto schedule = [&](SimTime at) {
      const int t = next_tag++;
      const EventId id =
          sim.ScheduleAt(at, [&fire, t, captures] { fire(t); });
      pending.push_back(id);
      tag_of[id] = t;
    };
    // Recursive-ish scheduling: each event logs itself and then, driven by
    // the shared deterministic Rng, cancels a random pending event and/or
    // schedules a replacement at a random offset.
    fire = [&](int tag) {
      EXPECT_FALSE(cancelled.contains(tag)) << "cancelled tag " << tag;
      EXPECT_TRUE(fired.insert(tag).second) << "tag " << tag << " twice";
      log.fired.emplace_back(tag, sim.Now());
      const std::uint64_t roll = rng() % 100;
      if (roll < 45 && !pending.empty()) {
        const EventId victim = pending[rng() % pending.size()];
        if (sim.Cancel(victim)) {
          ++log.cancel_hits;
          cancelled.insert(tag_of.at(victim));
        } else {
          ++log.cancel_misses;  // stale id: fired or doubly cancelled
        }
      }
      if (roll < 80) {
        schedule(sim.Now() + static_cast<SimDuration>(rng() % Micros(500)));
      }
    };

    for (int i = 0; i < 64; ++i) {
      schedule(static_cast<SimTime>(rng() % Millis(5)));
    }
    // Far past the run's horizon: these records outlive every slot reuse.
    std::vector<EventId> parked;
    for (int i = 0; i < 32; ++i) {
      schedule(Seconds(1) + static_cast<SimTime>(rng() % Millis(5)));
      parked.push_back(pending.back());
    }
    for (std::size_t i = 0; i < parked.size(); i += 4) {
      for (std::size_t k = i; k < i + 3; ++k) {
        EXPECT_TRUE(sim.Cancel(parked[k]));
        cancelled.insert(tag_of.at(parked[k]));
      }
    }
    log.events_run = sim.RunUntil(Millis(50));
    EXPECT_GT(captures.use_count(), 1);  // live callbacks still hold it
    return std::make_pair(log, std::weak_ptr<int>(captures));
  };

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::weak_ptr<int> heap_captures;
    std::weak_ptr<int> wheel_captures;
    RunLog heap;
    RunLog wheel;
    {
      Simulator sim;
      std::tie(heap, heap_captures) = run(sim, seed);
    }
    {
      WheelSimulator sim;
      std::tie(wheel, wheel_captures) = run(sim, seed);
    }
    EXPECT_EQ(heap, wheel) << "queues diverged at seed " << seed
                           << " (heap fired " << heap.fired.size()
                           << ", wheel fired " << wheel.fired.size() << ")";
    EXPECT_GT(heap.cancel_hits, 0u) << "fuzz never cancelled (seed " << seed
                                    << ")";
    EXPECT_GT(heap.cancel_misses, 0u)
        << "fuzz never raced a fired event (seed " << seed << ")";
    // Destroying the queue released every callback, cancelled or pending.
    EXPECT_TRUE(heap_captures.expired()) << "seed " << seed;
    EXPECT_TRUE(wheel_captures.expired()) << "seed " << seed;
  }
}

// Slot reuse around a buried cancelled record: the cancelled event's
// callback is never run, even after its slot-table neighbours have been
// recycled many times, and its captures are released once it surfaces.
TEST(EventQueueSlots, CancelledRecordNeverRunsARecycledCallback) {
  BinaryHeapEventQueue queue;
  int wrong = 0;
  const auto witness = std::make_shared<int>(0);
  const EventId buried =
      queue.Schedule(Seconds(1), [&wrong, witness] { ++wrong; });
  ASSERT_TRUE(queue.Cancel(buried));
  std::vector<int> order;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      const int tag = round * 3 + i;
      queue.Schedule(round * 10 + i, [&order, tag] { order.push_back(tag); });
    }
    for (int i = 0; i < 3; ++i) queue.PopNext().fn();
  }
  EXPECT_EQ(order.size(), 150u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(witness.use_count(), 2);  // still buried, not yet discarded
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.PopNext().id, kInvalidEventId);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(witness.use_count(), 1);  // surfaced and dropped
  EXPECT_FALSE(queue.Cancel(buried));
}

}  // namespace
}  // namespace haechi::sim
