// The simulator's priority queue of timestamped events.
//
// Events are delivered in (time, insertion-sequence) order, which is what
// makes every run with the same seed replay bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace haechi::sim {

/// Handle for cancelling a scheduled event. Ids are unique per queue and
/// never reused within a run.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Callback invoked when an event fires. Fires at most once.
using EventFn = std::function<void()>;

struct Event {
  SimTime time = 0;
  EventId id = kInvalidEventId;  // doubles as the insertion sequence number
  EventFn fn;
};

/// Event queue ordered by (time, id). Not thread-safe: the simulation is
/// single-threaded by design (see DESIGN.md §1).
///
/// Layout: the heap is 4-ary and holds 24-byte {time, id, slot} records;
/// callbacks live in a slot table (recycled through a free list) and are
/// touched only on Schedule and PopNext, never while sifting. Sifts move a
/// hole instead of swapping. Cancellation is lazy: Cancel marks the id
/// done in a one-bit-per-event table (exact semantics, O(1)) and the
/// record — with its callback slot — is discarded when it reaches the top.
class BinaryHeapEventQueue {
 public:
  /// Enqueues `fn` to fire at absolute time `time`.
  EventId Schedule(SimTime time, EventFn fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool Cancel(EventId id);

  /// Removes and returns the earliest pending event, skipping cancelled
  /// entries. Returns an Event with id == kInvalidEventId when empty.
  Event PopNext();

  /// Earliest pending time, or kSimTimeMax when empty.
  [[nodiscard]] SimTime PeekTime() {
    DropCancelledTop();
    return heap_.empty() ? kSimTimeMax : heap_.front().time;
  }

  [[nodiscard]] bool Empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, non-fired) events.
  [[nodiscard]] std::size_t Size() const { return live_; }

 private:
  static constexpr std::size_t kArity = 4;

  struct Entry {
    SimTime time;
    EventId id;
    std::uint32_t slot;  // index into fns_
  };
  static_assert(sizeof(Entry) == 24);
  static bool EarlierThan(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }

  /// Places `entry` at or above hole `i`.
  void SiftUp(std::size_t i, Entry entry);
  /// Places `entry` at or below hole `i`.
  void SiftDown(std::size_t i, Entry entry);
  /// Removes the top record; the caller takes care of its callback slot.
  void RemoveTop();
  void DropCancelledTop();
  void ReleaseSlot(std::uint32_t slot) { free_slots_.push_back(slot); }
  [[nodiscard]] bool IsDone(EventId id) const {
    return done_[static_cast<std::size_t>(id - 1)];
  }
  void MarkDone(EventId id) { done_[static_cast<std::size_t>(id - 1)] = true; }

  std::vector<Entry> heap_;
  std::vector<EventFn> fns_;               // callback slot table
  std::vector<std::uint32_t> free_slots_;  // recycled fns_ indices
  std::vector<bool> done_;                 // indexed by id-1: fired/cancelled
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace haechi::sim
