// Hierarchical timing wheel: an event queue with O(1) amortised insert and
// pop for short-horizon timers. The simulator runs on BinaryHeapEventQueue;
// this independent implementation is kept as the ordering oracle that
// sim_test fuzzes the heap against.
//
// Four levels of 256 slots each; ticks default to 1 µs. Events within one
// tick are ordered exactly by (time, id) when the slot is drained, so the
// wheel delivers the *identical* event order as BinaryHeapEventQueue; it
// has the same Schedule/Cancel/PopNext/PeekTime/Empty/Size interface.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"

namespace haechi::sim {

class HierarchicalTimingWheel {
 public:
  /// `tick` is the wheel granularity in nanoseconds (default 1 µs). Events
  /// are still timed exactly; the granularity only affects bucketing.
  explicit HierarchicalTimingWheel(SimDuration tick = kMicrosecond);

  EventId Schedule(SimTime time, EventFn fn);
  bool Cancel(EventId id);
  Event PopNext();
  [[nodiscard]] SimTime PeekTime();
  [[nodiscard]] bool Empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t Size() const { return live_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 1ULL << kSlotBits;  // 256
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  // Ticks covered by the whole wheel (levels 0..3).
  static constexpr std::uint64_t kCapacityTicks = 1ULL
                                                  << (kSlotBits * kLevels);

  struct Entry {
    SimTime time;
    EventId id;
    EventFn fn;
  };

  [[nodiscard]] std::uint64_t TickOf(SimTime time) const {
    return static_cast<std::uint64_t>(time) / tick_ns_;
  }
  [[nodiscard]] bool IsDone(EventId id) const {
    return done_[static_cast<std::size_t>(id - 1)];
  }
  void MarkDone(EventId id) { done_[static_cast<std::size_t>(id - 1)] = true; }

  /// Places an entry into the wheel relative to the current cursor. The
  /// caller guarantees cursor_ <= tick < cursor_ + kCapacityTicks; entries
  /// whose tick equals the cursor go straight to ready_.
  void PlaceInWheel(Entry entry);

  /// Inserts a due entry into ready_, keeping (time, id) ascending order.
  void PushReady(Entry entry);

  /// Moves the cursor forward until ready_ has at least one live entry or
  /// every structure is empty.
  void AdvanceUntilReady();

  /// Drains level `level`'s slot at the cursor's digit into lower levels
  /// (level 0 entries land in ready_).
  void CascadeLevel(int level);

  /// Pulls overflow entries that now fit into the wheel horizon.
  void PullOverflow();

  void DropDoneReadyFront();

  void SetOccupied(int level, std::uint64_t slot) {
    occupancy_[level][slot >> 6] |= (1ULL << (slot & 63));
  }
  void ClearOccupied(int level, std::uint64_t slot) {
    occupancy_[level][slot >> 6] &= ~(1ULL << (slot & 63));
  }
  /// Lowest occupied slot index >= from at `level`, or kSlots when none.
  [[nodiscard]] std::uint64_t NextOccupied(int level,
                                           std::uint64_t from) const;

  std::uint64_t tick_ns_;    // nanoseconds per tick
  std::uint64_t cursor_ = 0; // current tick; slots before it are drained
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occupancy_{};
  std::multimap<std::uint64_t, Entry> overflow_;  // tick -> entry
  std::deque<Entry> ready_;                       // ascending (time, id)
  std::vector<bool> done_;
  EventId next_id_ = 1;
  std::size_t live_ = 0;      // excludes cancelled
  std::size_t in_wheel_ = 0;  // physical entries in slots (incl. cancelled)
};

}  // namespace haechi::sim
