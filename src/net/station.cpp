#include "net/station.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace haechi::net {

namespace {

/// Scales `service` by U[1-jitter, 1+jitter].
SimDuration ApplyJitter(SimDuration service, double jitter, Rng& rng) {
  if (jitter <= 0.0) return service;
  const double factor = 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  auto out = static_cast<SimDuration>(
      static_cast<double>(service) * factor);
  return out < 1 ? 1 : out;
}

}  // namespace

FairShareStation::FairShareStation(sim::Simulator& sim, std::string name,
                                   double jitter, std::uint64_t seed,
                                   Discipline discipline)
    : sim_(sim),
      name_(std::move(name)),
      jitter_(jitter),
      rng_(seed),
      discipline_(discipline) {}

void FairShareStation::Submit(FlowId flow, SimDuration service_time,
                              ServiceDoneFn done, Priority priority) {
  HAECHI_EXPECTS(service_time > 0);
  HAECHI_EXPECTS(done != nullptr);
  if (priority == Priority::kControl) {
    control_.push_back(Item{service_time, std::move(done), flow});
  } else if (discipline_ == Discipline::kFifo) {
    if (flow >= fifo_depths_.size()) fifo_depths_.resize(flow + 1);
    ++fifo_depths_[flow];
    fifo_.push_back(Item{service_time, std::move(done), flow});
  } else {
    if (flow >= flows_.size()) {
      flows_.resize(flow + 1);
      active_.resize((flows_.size() + 63) / 64);
    }
    flows_[flow].push_back(Item{service_time, std::move(done), flow});
    SetActive(flow, true);
  }
  ++queued_;
  if (!busy_) StartNext();
}

std::size_t FairShareStation::QueueDepth(FlowId flow) const {
  if (discipline_ == Discipline::kFifo) {
    return flow < fifo_depths_.size() ? fifo_depths_[flow] : 0;
  }
  return flow < flows_.size() ? flows_[flow].size() : 0;
}

std::size_t FairShareStation::FindNextActive() const {
  // Bits at and above cursor_ in its word, then whole words with
  // wrap-around; the final pass revisits the cursor's word for the bits
  // below it. No bit at or beyond flows_.size() is ever set.
  const std::size_t words = active_.size();
  std::size_t word = cursor_ / 64;
  std::uint64_t bits = active_[word] & (~std::uint64_t{0} << (cursor_ % 64));
  for (std::size_t step = 0; step <= words; ++step) {
    if (bits != 0) {
      return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
    word = word + 1 == words ? 0 : word + 1;
    bits = active_[word];
  }
  return flows_.size();
}

void FairShareStation::StartNext() {
  HAECHI_ASSERT(!busy_);
  if (queued_ == 0) return;
  busy_ = true;
  if (!control_.empty()) {
    in_service_ = std::move(control_.front());
    control_.pop_front();
  } else if (discipline_ == Discipline::kFifo) {
    in_service_ = std::move(fifo_.front());
    fifo_.pop_front();
    HAECHI_ASSERT(fifo_depths_[in_service_.flow] > 0);
    --fifo_depths_[in_service_.flow];
  } else {
    const std::size_t idx = FindNextActive();
    HAECHI_ASSERT(idx < flows_.size());
    std::deque<Item>& queue = flows_[idx];
    in_service_ = std::move(queue.front());
    queue.pop_front();
    if (queue.empty()) SetActive(idx, false);
    cursor_ = (idx + 1) % flows_.size();  // next search starts past this one
  }
  --queued_;
  const SimDuration service = ApplyJitter(in_service_.service, jitter_, rng_);
  busy_time_ += service;
  sim_.ScheduleAfter(service, [this] { FinishService(); });
}

void FairShareStation::FinishService() {
  busy_ = false;
  ++served_;
  ServiceDoneFn done = std::move(in_service_.done);
  // Start the next item before running the callback: if the callback
  // submits new work it should queue behind already-waiting items.
  StartNext();
  done();
}

}  // namespace haechi::net
