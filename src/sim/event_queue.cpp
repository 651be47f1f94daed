#include "sim/event_queue.hpp"

#include <utility>

#include "common/assert.hpp"

namespace haechi::sim {

EventId BinaryHeapEventQueue::Schedule(SimTime time, EventFn fn) {
  HAECHI_EXPECTS(fn != nullptr);
  const EventId id = next_id_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{time, id, slot});
  done_.push_back(false);
  ++live_;
  return id;
}

bool BinaryHeapEventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId || id >= next_id_ || IsDone(id)) return false;
  MarkDone(id);
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return true;
}

void BinaryHeapEventQueue::RemoveTop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
}

void BinaryHeapEventQueue::DropCancelledTop() {
  // Entries are removed from the heap lazily, so a heap entry whose id is
  // marked done but which is still physically present is a cancelled entry.
  while (!heap_.empty() && IsDone(heap_.front().id)) {
    const std::uint32_t slot = heap_.front().slot;
    // Moved out first: the callback's captures are destroyed only after
    // the queue is consistent again.
    const EventFn dead = std::move(fns_[slot]);
    RemoveTop();
    ReleaseSlot(slot);
  }
}

Event BinaryHeapEventQueue::PopNext() {
  DropCancelledTop();
  if (heap_.empty()) return {};
  const Entry top = heap_.front();
  Event out{top.time, top.id, std::move(fns_[top.slot])};
  MarkDone(top.id);
  RemoveTop();
  ReleaseSlot(top.slot);
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return out;
}

void BinaryHeapEventQueue::SiftUp(std::size_t i, Entry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!EarlierThan(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void BinaryHeapEventQueue::SiftDown(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (EarlierThan(heap_[c], heap_[best])) best = c;
    }
    if (!EarlierThan(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

}  // namespace haechi::sim
