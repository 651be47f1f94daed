// The discrete-event simulator every Haechi component runs on.
//
// Single-threaded and deterministic: all concurrency in the modelled system
// (client threads, NIC DMA engines, the QoS monitor) is expressed as events
// on one virtual clock. Determinism is what lets the test suite make exact
// assertions about token accounting and reservation guarantees.
#pragma once

#include <functional>
#include <utility>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace haechi::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at 0.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `time`; times in the past fire
  /// as soon as control returns to the event loop.
  EventId ScheduleAt(SimTime time, EventFn fn) {
    return queue_.Schedule(time < now_ ? now_ : time, std::move(fn));
  }

  /// Schedules `fn` after a relative delay (>= 0).
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    HAECHI_EXPECTS(delay >= 0);
    return queue_.Schedule(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Runs events until the queue empties. Returns the number of events run.
  std::uint64_t Run() { return RunUntil(kSimTimeMax); }

  /// Runs events with time <= deadline; afterwards Now() == deadline unless
  /// the queue drained first (then Now() is the last event time). Events at
  /// exactly `deadline` are run.
  std::uint64_t RunUntil(SimTime deadline);

  /// Executes exactly one event if available. Returns false when drained.
  bool Step();

  [[nodiscard]] bool Idle() const { return queue_.Empty(); }
  [[nodiscard]] std::size_t PendingEvents() const { return queue_.Size(); }
  [[nodiscard]] std::uint64_t EventsRun() const { return events_run_; }

  /// Installs a coarse progress callback: `fn(Now(), EventsRun())` after
  /// every `every_events` events inside RunUntil (haechi_sim's live status
  /// heartbeat). `every_events == 0` (the default) removes it; the loop
  /// then pays nothing but an integer test. The callback must not schedule
  /// or cancel events.
  void SetProgressHook(std::uint64_t every_events,
                       std::function<void(SimTime, std::uint64_t)> fn) {
    progress_every_ = fn ? every_events : 0;
    progress_fn_ = std::move(fn);
  }

 private:
  BinaryHeapEventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_run_ = 0;
  std::uint64_t progress_every_ = 0;
  std::function<void(SimTime, std::uint64_t)> progress_fn_;
};

/// A cancellable repeating timer: fires `fn(now)` every `interval` starting
/// at `start`. Used for the paper's 1 ms token-management, reporting, and
/// check-interval loops. Stop() (or destruction) halts it.
class PeriodicTimer {
 public:
  using TickFn = std::function<void()>;

  PeriodicTimer(Simulator& sim, SimDuration interval, TickFn fn)
      : sim_(sim), interval_(interval), fn_(std::move(fn)) {
    HAECHI_EXPECTS(interval > 0);
    HAECHI_EXPECTS(fn_ != nullptr);
  }

  ~PeriodicTimer() { Stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer; the first tick fires at Now() + interval (or at
  /// `first_delay` if given). No-op when already running.
  void Start() { Start(interval_); }
  void Start(SimDuration first_delay);

  /// Disarms the timer; pending tick is cancelled.
  void Stop();

  [[nodiscard]] bool Running() const { return pending_ != kInvalidEventId; }

 private:
  void Fire();

  Simulator& sim_;
  SimDuration interval_;
  TickFn fn_;
  EventId pending_ = kInvalidEventId;
};

}  // namespace haechi::sim
