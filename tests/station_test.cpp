// Unit tests for the queueing station: FIFO vs round-robin disciplines,
// the control-priority fast path, and a property test pinning the bitmap
// round-robin arbiter to a naive linear-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

#include "net/model_params.hpp"
#include "net/station.hpp"
#include "sim/simulator.hpp"

namespace haechi::net {
namespace {

TEST(FairShareStation, RoundRobinSharesEqually) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  std::vector<int> done(4, 0);
  for (int f = 0; f < 4; ++f) {
    for (int i = 0; i < 1000; ++i) {
      station.Submit(static_cast<FlowId>(f), 100, [&done, f] { ++done[f]; });
    }
  }
  sim.RunUntil(100 * 2000);  // half the total work
  for (int f = 0; f < 4; ++f) {
    EXPECT_NEAR(done[f], 500, 2) << "flow " << f;
  }
}

TEST(FairShareStation, RoundRobinSkipsEmptyFlows) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  int done_a = 0, done_b = 0;
  for (int i = 0; i < 10; ++i) station.Submit(0, 100, [&] { ++done_a; });
  station.Submit(7, 100, [&] { ++done_b; });  // sparse flow id
  sim.Run();
  EXPECT_EQ(done_a, 10);
  EXPECT_EQ(done_b, 1);
}

TEST(FairShareStation, FifoServesInArrivalOrder) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  std::vector<int> order;
  station.Submit(0, 100, [&] { order.push_back(0); });
  station.Submit(1, 100, [&] { order.push_back(1); });
  station.Submit(0, 100, [&] { order.push_back(2); });
  station.Submit(2, 100, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FairShareStation, FifoTracksPerFlowDepth) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  station.Submit(3, 100, [] {});
  station.Submit(3, 100, [] {});
  station.Submit(5, 100, [] {});
  // One item is in service already; 2 remain queued.
  EXPECT_EQ(station.QueueDepth(), 2u);
  EXPECT_GE(station.QueueDepth(3), 1u);
  sim.Run();
  EXPECT_EQ(station.QueueDepth(3), 0u);
  EXPECT_EQ(station.QueueDepth(5), 0u);
}

TEST(FairShareStation, ControlPriorityBypassesBulkBacklog) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  SimTime control_done = -1;
  // 1000 bulk items of 1µs each = 1ms of backlog.
  for (int i = 0; i < 1000; ++i) station.Submit(0, 1000, [] {});
  station.Submit(1, 50, [&] { control_done = sim.Now(); },
                 Priority::kControl);
  sim.Run();
  // Control op finishes after at most one in-service bulk item, not after
  // the 1 ms backlog.
  EXPECT_GT(control_done, 0);
  EXPECT_LE(control_done, 2 * 1000 + 50);
  EXPECT_EQ(sim.Now(), 1000 * 1000 + 50);
}

TEST(FairShareStation, ControlPriorityWorksUnderRoundRobinToo) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  SimTime control_done = -1;
  for (int i = 0; i < 100; ++i) station.Submit(0, 1000, [] {});
  station.Submit(0, 50, [&] { control_done = sim.Now(); },
                 Priority::kControl);
  sim.Run();
  EXPECT_LE(control_done, 2 * 1000 + 50);
}

TEST(FairShareStation, WorkConservingAcrossFlows) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  // Flow 0 has steady work; flow 1 arrives late; station must never idle.
  for (int i = 0; i < 100; ++i) station.Submit(0, 100, [] {});
  sim.ScheduleAt(5'000, [&] {
    for (int i = 0; i < 10; ++i) station.Submit(1, 100, [] {});
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), 110 * 100);
  EXPECT_EQ(station.BusyTime(), 110 * 100);
}

// The round-robin arbiter as first written: per-flow FIFOs indexed by
// flow id, and a linear scan from the cursor (modulo the flow count) for
// the next non-empty flow. FairShareStation must serve in exactly this
// order.
class ReferenceStation {
 public:
  explicit ReferenceStation(sim::Simulator& sim) : sim_(sim) {}

  void Submit(FlowId flow, SimDuration service, std::function<void()> done,
              Priority priority) {
    if (priority == Priority::kControl) {
      control_.push_back(Item{service, std::move(done)});
    } else {
      if (flow >= flows_.size()) flows_.resize(flow + 1);
      flows_[flow].push_back(Item{service, std::move(done)});
    }
    ++queued_;
    if (!busy_) StartNext();
  }

 private:
  struct Item {
    SimDuration service = 0;
    std::function<void()> done;
  };

  void StartNext() {
    if (queued_ == 0) return;
    busy_ = true;
    Item item;
    if (!control_.empty()) {
      item = std::move(control_.front());
      control_.pop_front();
    } else {
      const std::size_t n = flows_.size();
      std::size_t idx = n;
      for (std::size_t step = 0; step < n; ++step) {
        if (!flows_[(cursor_ + step) % n].empty()) {
          idx = (cursor_ + step) % n;
          break;
        }
      }
      ASSERT_LT(idx, n);
      item = std::move(flows_[idx].front());
      flows_[idx].pop_front();
      cursor_ = (idx + 1) % n;
    }
    --queued_;
    sim_.ScheduleAfter(item.service, [this, done = std::move(item.done)] {
      busy_ = false;
      StartNext();
      done();
    });
  }

  sim::Simulator& sim_;
  std::deque<Item> control_;
  std::vector<std::deque<Item>> flows_;
  std::size_t cursor_ = 0;
  std::size_t queued_ = 0;
  bool busy_ = false;
};

/// Drives `station` with a seeded script: bursts of bulk items on sparse
/// flow ids spanning several 64-bit words (new, higher ids keep appearing
/// as the run goes, so the flow count grows under the cursor), a share of
/// control-lane items, and completions that resubmit. Returns the
/// (tag, completion time) log.
template <typename Station>
std::vector<std::pair<int, SimTime>> DriveStation(sim::Simulator& sim,
                                                  Station& station,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowId> flow_ids;
  for (int i = 0; i < 10; ++i) {
    flow_ids.push_back(static_cast<FlowId>(rng.NextBelow(330)));
  }
  // Word-boundary ids, arriving late.
  for (const FlowId edge : {63u, 64u, 127u, 128u, 191u, 192u, 255u, 256u}) {
    if (rng.NextBelow(2) == 0) flow_ids.push_back(edge);
  }
  std::vector<std::pair<int, SimTime>> log;
  int next_tag = 0;
  std::function<void(FlowId)> submit = [&](FlowId flow) {
    const int tag = next_tag++;
    const auto service = static_cast<SimDuration>(50 + rng.NextBelow(450));
    const Priority priority =
        rng.NextBelow(100) < 15 ? Priority::kControl : Priority::kBulk;
    station.Submit(
        flow, service,
        [&, tag, flow] {
          log.emplace_back(tag, sim.Now());
          const std::uint64_t roll = rng.NextBelow(100);
          if (roll < 25) {
            submit(flow);
          } else if (roll < 35 && next_tag < 4000) {
            submit(flow_ids[rng.NextBelow(flow_ids.size())]);
          }
        },
        priority);
  };
  for (int i = 0; i < 600; ++i) {
    // Flows are introduced in list order: later (often higher) ids join
    // an arbiter that is already cycling.
    const std::size_t reach = std::min<std::size_t>(
        flow_ids.size(), 1 + static_cast<std::size_t>(i) / 40);
    const FlowId flow = flow_ids[rng.NextBelow(reach)];
    sim.ScheduleAt(static_cast<SimTime>(rng.NextBelow(Micros(150))),
                   [&submit, flow] { submit(flow); });
  }
  sim.Run();
  return log;
}

TEST(FairShareStation, RoundRobinMatchesLinearScanReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim_a;
    FairShareStation station(sim_a, "srv", 0.0, 1, Discipline::kRoundRobin);
    const auto got = DriveStation(sim_a, station, seed);
    sim::Simulator sim_b;
    ReferenceStation reference(sim_b);
    const auto want = DriveStation(sim_b, reference, seed);
    ASSERT_GT(got.size(), 600u);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(station.QueueDepth(), 0u);
    EXPECT_EQ(station.Served(), got.size());
  }
}

TEST(ModelParams, CalibratedCapacities) {
  const ModelParams params;
  EXPECT_NEAR(params.LocalCapacityIops(), 400'000, 2'000);
  EXPECT_NEAR(params.GlobalCapacityIops(), 1'570'000, 10'000);
  EXPECT_NEAR(params.TwoSidedCapacityIops(), 430'000, 2'000);
}

TEST(ModelParams, CapacityScaleShrinksDataNotControl) {
  ModelParams params;
  params.capacity_scale = 0.1;
  EXPECT_NEAR(params.GlobalCapacityIops(), 157'000, 1'000);
  // Control-plane floors are scale-invariant.
  EXPECT_EQ(params.ClientNicService(8), params.min_op_service);
  ModelParams full;
  EXPECT_EQ(params.ClientNicService(8), full.ClientNicService(8));
}

TEST(ModelParams, ServiceTimeMonotoneInSize) {
  const ModelParams params;
  EXPECT_LT(params.ServerNicService(64), params.ServerNicService(4096));
  EXPECT_LT(params.ClientNicService(512), params.ClientNicService(4096));
}

}  // namespace
}  // namespace haechi::net
