#include "sim/simulator.hpp"

namespace haechi::sim {

std::uint64_t Simulator::RunUntil(SimTime deadline) {
  std::uint64_t ran = 0;
  while (queue_.PeekTime() <= deadline) {
    Event event = queue_.PopNext();
    if (event.id == kInvalidEventId) break;
    HAECHI_ASSERT(event.time >= now_);
    now_ = event.time;
    event.fn();
    ++ran;
    if (progress_every_ != 0 &&
        (events_run_ + ran) % progress_every_ == 0) {
      progress_fn_(now_, events_run_ + ran);
    }
  }
  if (deadline != kSimTimeMax && now_ < deadline) now_ = deadline;
  events_run_ += ran;
  return ran;
}

bool Simulator::Step() {
  Event event = queue_.PopNext();
  if (event.id == kInvalidEventId) return false;
  HAECHI_ASSERT(event.time >= now_);
  now_ = event.time;
  event.fn();
  ++events_run_;
  return true;
}

void PeriodicTimer::Start(SimDuration first_delay) {
  if (Running()) return;
  HAECHI_EXPECTS(first_delay >= 0);
  pending_ = sim_.ScheduleAfter(first_delay, [this] { Fire(); });
}

void PeriodicTimer::Stop() {
  if (!Running()) return;
  sim_.Cancel(pending_);
  pending_ = kInvalidEventId;
}

void PeriodicTimer::Fire() {
  // Rearm before invoking the callback so the callback may Stop() us.
  pending_ = sim_.ScheduleAfter(interval_, [this] { Fire(); });
  fn_();
}

}  // namespace haechi::sim
