// The data-node QoS monitor on the simulator (paper §II-E).
//
// The protocol itself — T1 dispatch, the S1–S3 check loop, T2 token
// conversion, T3/Algorithm 1 calibration, the report lease, lending,
// checkpoint/crash/recovery and the control boundary — is MonitorCore
// (core/monitor_core.hpp), whose API this class re-exports. QosMonitor is
// its simulated-verbs port: the pool is one word in a registered control
// block clients reach one-sided, the control messages are two-sided SENDs
// on each client's ctrl QP, and two sim::PeriodicTimers drive the period
// boundary and the check tick. With QosConfig::loopback_cas the check
// observes the pool through a loopback RDMA CAS, as the paper describes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/monitor_core.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {

class QosMonitor : private MonitorPort, private MonitorCore {
 public:
  using MonitorCore::Checkpoint;
  using MonitorCore::PeriodHook;
  using MonitorCore::PeriodLedger;
  using MonitorCore::Stats;

  /// Capacities in IOPS, as profiled (Experiment Set 1). `node` is the
  /// data node; the control block MR lives in its protection domain.
  QosMonitor(sim::Simulator& sim, const QosConfig& config, rdma::Node& node,
             double profiled_global_iops, double profiled_local_iops);

  QosMonitor(const QosMonitor&) = delete;
  QosMonitor& operator=(const QosMonitor&) = delete;

  /// Admits a client (MonitorCore::AdmitClient) and binds its control
  /// channel. `ctrl_qp` is the monitor-side QP connected to the engine's
  /// control QP. Returns the wiring the engine needs for its one-sided QoS
  /// ops.
  Result<QosWiring> AdmitClient(ClientId client, std::int64_t reservation,
                                std::int64_t limit,
                                rdma::QueuePair& ctrl_qp);

  /// Cross-server borrowing (cluster coordinator only); see
  /// MonitorCore::LendTokens.
  [[nodiscard]] std::int64_t LendTokens(std::int64_t want,
                                        std::uint32_t peer);
  void AbsorbTokens(std::int64_t tokens, std::uint32_t peer);

  /// Starts period 1 at absolute time `at` and runs until Stop().
  void Start(SimTime at);
  void Stop();

  /// Control-plane survivability (DESIGN.md §15). Crash() stops the timers
  /// and drops the live client table (MonitorCore::Crash); Recover(at)
  /// restarts from the checkpoint at `at` (MonitorCore::Recover).
  void Crash();
  void Recover(SimTime at);

  /// Current pool word (signed; negative after over-draining FAAs).
  [[nodiscard]] std::int64_t GlobalPoolValue() const { return ReadPoolWord(); }

  using MonitorCore::admission;
  using MonitorCore::checkpoint;
  using MonitorCore::Crashed;
  using MonitorCore::CurrentPeriod;
  using MonitorCore::estimator;
  using MonitorCore::HasFreshReport;
  using MonitorCore::InitialPool;
  using MonitorCore::LastCompleted;
  using MonitorCore::LastResidual;
  using MonitorCore::ledger;
  using MonitorCore::PeriodCapacity;
  using MonitorCore::ReleaseClient;
  using MonitorCore::ReportingActive;
  using MonitorCore::ReservationOf;
  using MonitorCore::SetClientDeadCallback;
  using MonitorCore::SetController;
  using MonitorCore::SetOverReserveCallback;
  using MonitorCore::SetPeriodHook;
  using MonitorCore::SetTraceActor;
  using MonitorCore::stats;
  using MonitorCore::trace_actor;
  using MonitorCore::UpdateReservation;

 private:
  // MonitorPort over the control block: word 0 is the pool, words
  // 1..kMaxClients the report slots.
  std::int64_t Load(std::size_t shard) override;
  std::int64_t Exchange(std::size_t shard, std::int64_t value) override;
  bool Cas(std::size_t shard, std::int64_t& expected,
           std::int64_t desired) override;
  std::int64_t Add(std::size_t shard, std::int64_t delta) override;
  std::uint64_t ReadSlot(std::size_t slot) override;
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override;
  void Send(std::size_t slot, const MonitorMessage& msg) override;
  SimTime Now() override { return sim_.Now(); }
  void Emit(obs::ActorKind kind, std::uint32_t actor, obs::EventType type,
            std::uint32_t period, std::int64_t a, std::int64_t b,
            std::int64_t c) override;
  std::int64_t ObservePool(std::int64_t sampled) override;

  /// A period boundary, then the loopback observation restarts from the
  /// freshly installed pool.
  void Boundary();
  void StartTimers();
  [[nodiscard]] std::int64_t ReadPoolWord() const;
  void WritePoolWord(std::int64_t value);

  sim::Simulator& sim_;
  rdma::Node& node_;

  // Lives in registered memory so clients reach it one-sided.
  std::vector<std::byte> control_block_;
  const rdma::MemoryRegion* control_mr_ = nullptr;
  // Control channel per report slot, bound at admission.
  std::array<rdma::QueuePair*, kMaxClients> ctrl_qps_{};

  // Loopback-CAS observation state (QosConfig::loopback_cas).
  bool loopback_cas_;
  rdma::QueuePair* loop_qp_ = nullptr;
  rdma::QueuePair* loop_peer_qp_ = nullptr;
  bool loop_cas_in_flight_ = false;
  std::int64_t loop_observed_pool_ = 0;

  std::unique_ptr<sim::PeriodicTimer> period_timer_;
  std::unique_ptr<sim::PeriodicTimer> check_timer_;
  std::uint64_t next_wr_id_ = 1;
};

}  // namespace haechi::core
