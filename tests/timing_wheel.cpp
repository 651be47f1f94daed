#include "timing_wheel.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace haechi::sim {

HierarchicalTimingWheel::HierarchicalTimingWheel(SimDuration tick)
    : tick_ns_(static_cast<std::uint64_t>(tick)) {
  HAECHI_EXPECTS(tick > 0);
}

EventId HierarchicalTimingWheel::Schedule(SimTime time, EventFn fn) {
  HAECHI_EXPECTS(fn != nullptr);
  HAECHI_EXPECTS(time >= 0);
  const EventId id = next_id_++;
  done_.push_back(false);
  ++live_;
  Entry entry{time, id, std::move(fn)};
  const std::uint64_t tick = TickOf(time);
  if (tick <= cursor_) {
    // Due now (or scheduled "in the past"): bypass the wheel.
    PushReady(std::move(entry));
  } else if (tick - cursor_ < kCapacityTicks) {
    PlaceInWheel(std::move(entry));
  } else {
    overflow_.emplace(tick, std::move(entry));
  }
  return id;
}

bool HierarchicalTimingWheel::Cancel(EventId id) {
  if (id == kInvalidEventId || id >= next_id_ || IsDone(id)) return false;
  MarkDone(id);
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return true;
}

void HierarchicalTimingWheel::PlaceInWheel(Entry entry) {
  const std::uint64_t tick = TickOf(entry.time);
  HAECHI_ASSERT(tick > cursor_ && tick - cursor_ < kCapacityTicks);
  const std::uint64_t delta = tick - cursor_;
  int level = 0;
  while (delta >= (1ULL << (kSlotBits * (level + 1)))) ++level;
  HAECHI_ASSERT(level < kLevels);
  const std::uint64_t slot = (tick >> (kSlotBits * level)) & kSlotMask;
  slots_[level][slot].push_back(std::move(entry));
  SetOccupied(level, slot);
  ++in_wheel_;
}

void HierarchicalTimingWheel::PushReady(Entry entry) {
  // Common case: entries arrive in non-decreasing (time, id) order.
  if (ready_.empty() || ready_.back().time < entry.time ||
      (ready_.back().time == entry.time && ready_.back().id < entry.id)) {
    ready_.push_back(std::move(entry));
    return;
  }
  const auto pos = std::lower_bound(
      ready_.begin(), ready_.end(), entry, [](const Entry& a, const Entry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.id < b.id;
      });
  ready_.insert(pos, std::move(entry));
}

std::uint64_t HierarchicalTimingWheel::NextOccupied(int level,
                                                    std::uint64_t from) const {
  for (std::uint64_t word = from >> 6; word < kSlots / 64; ++word) {
    std::uint64_t bits = occupancy_[level][word];
    if (word == from >> 6) bits &= ~0ULL << (from & 63);
    if (bits != 0) {
      return word * 64 +
             static_cast<std::uint64_t>(std::countr_zero(bits));
    }
  }
  return kSlots;
}

void HierarchicalTimingWheel::CascadeLevel(int level) {
  const std::uint64_t slot = (cursor_ >> (kSlotBits * level)) & kSlotMask;
  auto& bucket = slots_[level][slot];
  if (bucket.empty()) return;
  std::vector<Entry> pending;
  pending.swap(bucket);
  ClearOccupied(level, slot);
  in_wheel_ -= pending.size();
  for (auto& entry : pending) {
    if (IsDone(entry.id)) continue;  // cancelled while parked
    const std::uint64_t tick = TickOf(entry.time);
    HAECHI_ASSERT(tick >= cursor_);
    if (tick == cursor_) {
      // NOT straight to ready_: the level-0 slot for this tick may already
      // hold wrap-placed entries (scheduled when the cursor was less than
      // one block behind), and those must sort together with the cascaded
      // ones in the slot drain — bypassing it would pop this entry before
      // earlier-timed parked ones.
      const std::uint64_t slot0 = tick & kSlotMask;
      slots_[0][slot0].push_back(std::move(entry));
      SetOccupied(0, slot0);
      ++in_wheel_;
    } else {
      PlaceInWheel(std::move(entry));
    }
  }
}

void HierarchicalTimingWheel::PullOverflow() {
  // Keep a one-top-level-block margin so pulled entries always fit.
  const std::uint64_t horizon =
      cursor_ + kCapacityTicks - (1ULL << (kSlotBits * (kLevels - 1)));
  while (!overflow_.empty() && overflow_.begin()->first < horizon) {
    Entry entry = std::move(overflow_.begin()->second);
    const std::uint64_t tick = overflow_.begin()->first;
    overflow_.erase(overflow_.begin());
    if (IsDone(entry.id)) continue;
    if (tick == cursor_) {
      // Same merge discipline as CascadeLevel: due-now entries join the
      // level-0 slot so they sort with anything already parked there.
      const std::uint64_t slot0 = tick & kSlotMask;
      slots_[0][slot0].push_back(std::move(entry));
      SetOccupied(0, slot0);
      ++in_wheel_;
    } else if (tick < cursor_) {
      PushReady(std::move(entry));
    } else {
      PlaceInWheel(std::move(entry));
    }
  }
}

void HierarchicalTimingWheel::DropDoneReadyFront() {
  while (!ready_.empty() && IsDone(ready_.front().id)) ready_.pop_front();
}

void HierarchicalTimingWheel::AdvanceUntilReady() {
  DropDoneReadyFront();
  while (ready_.empty()) {
    if (live_ == 0) return;
    if (in_wheel_ == 0) {
      if (overflow_.empty()) {
        // live_ > 0 entries must then be cancelled residue in ready_ —
        // but ready_ is empty, so the accounting is broken.
        HAECHI_UNREACHABLE("live events but no storage holds them");
      }
      // Jump straight to the first overflow entry.
      cursor_ = overflow_.begin()->first;
      PullOverflow();
      DropDoneReadyFront();
      continue;
    }
    // Find the next occupied level-0 slot within the current block.
    const std::uint64_t pos = cursor_ & kSlotMask;
    const std::uint64_t slot = NextOccupied(0, pos);
    if (slot < kSlots) {
      cursor_ = (cursor_ & ~kSlotMask) + slot;
      auto& bucket = slots_[0][slot];
      std::vector<Entry> drained;
      drained.swap(bucket);
      ClearOccupied(0, slot);
      in_wheel_ -= drained.size();
      std::sort(drained.begin(), drained.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.time != b.time) return a.time < b.time;
                  return a.id < b.id;
                });
      for (auto& entry : drained) {
        if (IsDone(entry.id)) continue;
        HAECHI_ASSERT(TickOf(entry.time) == cursor_);
        ready_.push_back(std::move(entry));
      }
      DropDoneReadyFront();
      continue;
    }
    // Level-0 block exhausted: step to the next block boundary and cascade
    // every level whose digit turned over (highest level first so entries
    // trickle down through lower levels correctly).
    cursor_ = (cursor_ | kSlotMask) + 1;
    for (int level = kLevels - 1; level >= 1; --level) {
      const std::uint64_t span = 1ULL << (kSlotBits * level);
      if (cursor_ % span == 0) {
        if (level == kLevels - 1) PullOverflow();
        CascadeLevel(level);
      }
    }
    DropDoneReadyFront();
  }
}

Event HierarchicalTimingWheel::PopNext() {
  AdvanceUntilReady();
  if (ready_.empty()) return {};
  Entry entry = std::move(ready_.front());
  ready_.pop_front();
  MarkDone(entry.id);
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return Event{entry.time, entry.id, std::move(entry.fn)};
}

SimTime HierarchicalTimingWheel::PeekTime() {
  AdvanceUntilReady();
  return ready_.empty() ? kSimTimeMax : ready_.front().time;
}

}  // namespace haechi::sim
