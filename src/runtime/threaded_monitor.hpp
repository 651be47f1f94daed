// The data-node QoS monitor on real threads (paper §II-E).
//
// The protocol is core::MonitorCore, the same code the simulator's
// core::QosMonitor runs. This class is its concurrent-runtime port and
// differs from the simulated one in three things only:
//
//   * transport: the pool shards and report slots are ThreadedFabric's
//     shared atomics (boundary exchange, conversion/rebalance CAS and the
//     seqlock'd slots are genuinely concurrent with client FAAs), and the
//     two-sided control messages are Deliver* calls into the engine bound
//     to each slot — engines only touch the shared region, so the lock
//     order monitor-mutex -> engine-mutex is acyclic;
//   * clock: two wall-clock runtime::PeriodicTimer threads drive the
//     period boundary and the check tick; every entry point reads the
//     Clock once, so an event is stamped (Recorder::EmitAt) with the same
//     `now` its payload was computed from;
//   * locking: one mutex serialises the timer threads and the public API
//     around the core.
//
// The conservation identities of MonitorCore::PeriodLedger hold *exactly*
// here too, which tests/runtime_stress_test.cpp and the differential audit
// lean on.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/monitor_core.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_engine.hpp"
#include "runtime/threaded_fabric.hpp"

namespace haechi::runtime {

/// What admission hands a threaded client: its report-slot index (also
/// used as the fabric port for per-client op stats). The pool word needs
/// no address — the shared region is the address space.
struct ThreadedWiring {
  std::size_t slot = 0;
};

class ThreadedMonitor : private core::MonitorPort {
 public:
  using Stats = core::MonitorCore::Stats;
  using RuntimeStats = core::MonitorCore::RuntimeStats;
  using PeriodLedger = core::MonitorCore::PeriodLedger;
  using Checkpoint = core::MonitorCore::Checkpoint;
  using PeriodHook = core::MonitorCore::PeriodHook;
  using ClientReportHook = core::MonitorCore::ClientReportHook;

  ThreadedMonitor(Clock& clock, obs::Recorder* recorder,
                  const core::QosConfig& config, ThreadedFabric& fabric,
                  double profiled_global_iops, double profiled_local_iops);
  ~ThreadedMonitor() override;

  ThreadedMonitor(const ThreadedMonitor&) = delete;
  ThreadedMonitor& operator=(const ThreadedMonitor&) = delete;

  /// Admits a client (both capacity constraints enforced) and allocates
  /// its report slot. Bind the engine before Start() so control messages
  /// can be delivered.
  Result<ThreadedWiring> AdmitClient(ClientId client, std::int64_t reservation,
                                     std::int64_t limit);
  /// Binds the admitted client's engine for control-message delivery.
  Status BindEngine(ClientId client, ThreadedEngine* engine);
  /// Removes a client and releases its reservation.
  Status ReleaseClient(ClientId client);

  /// Runtime reservation resize (the closed-loop controller's W1 action).
  Status UpdateReservation(ClientId client, std::int64_t reservation);

  /// Wires the closed-loop controller (may be null to unwire). PlanBoundary
  /// runs under the monitor mutex at each boundary; `readmit` (optional)
  /// must defer the actual re-admission — it runs on the monitor's timer
  /// thread holding mu_.
  void SetController(core::control::QosController* controller,
                     std::function<void(ClientId)> readmit);

  /// Starts period 1 immediately and runs until Stop().
  void Start();
  void Stop();

  /// Control-plane survivability (DESIGN.md §15). Crash() disarms the
  /// timers and drops the live client table; Recover() restarts from the
  /// checkpoint immediately (the caller owns the outage duration). Must
  /// not be called after Stop().
  void Crash();
  void Recover();
  [[nodiscard]] bool Crashed() const {
    return Locked([](const auto& c) { return c.Crashed(); });
  }
  [[nodiscard]] Checkpoint CheckpointSnapshot() const {
    return Locked([](const auto& c) { return c.checkpoint(); });
  }

  [[nodiscard]] Stats StatsSnapshot() const {
    return Locked([](const auto& c) { return c.stats(); });
  }
  [[nodiscard]] RuntimeStats RuntimeStatsSnapshot() const {
    return Locked([](const auto& c) { return c.runtime_stats(); });
  }
  [[nodiscard]] std::vector<PeriodLedger> LedgerSnapshot() const {
    return Locked([](const auto& c) { return c.ledger(); });
  }
  /// Sum over all pool shards (diagnostic; the ledger never uses it).
  [[nodiscard]] std::int64_t GlobalPoolValue() const {
    return fabric_.LoadPoolSum();
  }
  [[nodiscard]] std::int64_t PeriodCapacity() const {
    return Locked([](const auto& c) { return c.PeriodCapacity(); });
  }
  [[nodiscard]] std::int64_t InitialPool() const {
    return Locked([](const auto& c) { return c.InitialPool(); });
  }
  [[nodiscard]] bool ReportingActive() const {
    return Locked([](const auto& c) { return c.ReportingActive(); });
  }
  [[nodiscard]] const core::AdmissionController& admission() const {
    return core_.admission();
  }

  void SetPeriodHook(PeriodHook fn) {
    std::lock_guard lk(mu_);
    core_.SetPeriodHook(std::move(fn));
  }
  void SetClientReportHook(ClientReportHook fn) {
    std::lock_guard lk(mu_);
    core_.SetClientReportHook(std::move(fn));
  }
  void SetOverReserveCallback(std::function<void(ClientId)> fn) {
    std::lock_guard lk(mu_);
    core_.SetOverReserveCallback(std::move(fn));
  }
  void SetClientDeadCallback(std::function<void(ClientId)> fn) {
    std::lock_guard lk(mu_);
    core_.SetClientDeadCallback(std::move(fn));
  }

 private:
  // MonitorPort over ThreadedFabric.
  std::int64_t Load(std::size_t shard) override {
    return fabric_.LoadPool(shard);
  }
  std::int64_t Exchange(std::size_t shard, std::int64_t value) override {
    return fabric_.ExchangePool(shard, value);
  }
  bool Cas(std::size_t shard, std::int64_t& expected,
           std::int64_t desired) override {
    return fabric_.CasPool(shard, expected, desired);
  }
  std::int64_t Add(std::size_t shard, std::int64_t delta) override {
    return fabric_.AddPool(shard, delta);
  }
  std::uint64_t ReadSlot(std::size_t slot) override {
    return fabric_.ReadSlot(slot).packed;
  }
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override {
    fabric_.PrimeSlot(slot, packed);
  }
  void Send(std::size_t slot, const core::MonitorMessage& msg) override;
  SimTime Now() override { return now_; }
  void Emit(obs::ActorKind kind, std::uint32_t actor, obs::EventType type,
            std::uint32_t period, std::int64_t a, std::int64_t b,
            std::int64_t c) override;

  /// Locks the monitor and reads the clock once for the whole operation.
  [[nodiscard]] std::unique_lock<std::mutex> Enter();
  /// Reads the core under the mutex.
  template <typename Fn>
  std::invoke_result_t<Fn, const core::MonitorCore&> Locked(Fn fn) const {
    std::lock_guard lk(mu_);
    return fn(core_);
  }

  Clock& clock_;
  obs::Recorder* recorder_;
  ThreadedFabric& fabric_;

  mutable std::mutex mu_;
  SimTime now_ = 0;  // the clock reading of the operation holding mu_
  core::MonitorCore core_;
  // Engine per report slot (null until BindEngine).
  std::array<ThreadedEngine*, core::MonitorCore::kMaxClients> engines_{};

  std::unique_ptr<PeriodicTimer> period_timer_;
  std::unique_ptr<PeriodicTimer> check_timer_;
};

}  // namespace haechi::runtime
