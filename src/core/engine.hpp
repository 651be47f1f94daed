// The client-side QoS engine on the simulator (paper §II-D).
//
// The protocol itself — token take order, limit throttle, decay, degraded
// mode, fetch-result handling, the FAA backoff ladder and claims reports —
// is EngineCore (core/engine_core.hpp), whose API this class re-exports.
// ClientQosEngine is its simulated-verbs runtime: every application I/O
// passes through Submit() and waits in a bounded queue for a token (a
// runaway client cannot push unbacked I/Os to the data node, §II-F); token
// fetches are FAAs and reports 8-byte WRITEs on the engine's one-sided QoS
// QP, the monitor's control messages arrive on a ctrl QP, and two
// sim::PeriodicTimers drive the token tick and the report cadence.
//
// None of these paths involve the data-node CPU: control messages are the
// only two-sided traffic and they originate at the monitor.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/engine_core.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {

class ClientQosEngine : private EnginePort, private EngineCore {
 public:
  using EngineCore::Stats;

  /// Completion callback for one application I/O.
  using CompleteFn = std::function<void()>;

  /// Issues one data I/O (GET or PUT); must call `done` exactly once at
  /// completion, or return a non-OK status synchronously. QoS accounting
  /// is op-agnostic: reads and writes consume tokens identically (both are
  /// record-sized one-sided ops).
  using IoBackendFn =
      std::function<Status(std::uint64_t key, bool is_write, CompleteFn done)>;

  /// `qos_qp` is the engine's one-sided QP to the data node (FAA + report
  /// writes); `ctrl_qp` receives the monitor's two-sided control messages.
  /// `wiring` carries the pool/report-slot addresses from admission.
  ClientQosEngine(sim::Simulator& sim, ClientId id, const QosConfig& config,
                  rdma::Node& node, rdma::QueuePair& qos_qp,
                  rdma::QueuePair& ctrl_qp, const QosWiring& wiring);

  ClientQosEngine(const ClientQosEngine&) = delete;
  ClientQosEngine& operator=(const ClientQosEngine&) = delete;

  void SetIoBackend(IoBackendFn backend) { backend_ = std::move(backend); }

  /// Application entry point: queue one I/O for `key`. Rejected with
  /// kResourceExhausted when the engine queue is full and with
  /// kFailedPrecondition when no backend is set. Queued I/Os wait for the
  /// first PeriodStart.
  Status Submit(std::uint64_t key, CompleteFn done, bool is_write = false);

  /// Quiesces the engine for good (client crash/teardown): timers stop,
  /// queued requests are dropped and nothing issues again. The object must
  /// outlive any in-flight completions — callbacks it registered still
  /// fire and must find it alive.
  void Stop();

  /// Cluster deployments: the actor id this engine stamps on its trace
  /// events. Defaults to the client id; a client striped across D nodes
  /// runs D engines, and each needs a distinct actor or their rings would
  /// interleave and break the per-actor seq streams the audit checks.
  void SetTraceActor(std::uint32_t actor) { trace_actor_ = actor; }
  [[nodiscard]] std::uint32_t trace_actor() const { return trace_actor_; }

  [[nodiscard]] std::size_t QueueDepth() const { return queue_.size(); }

  using EngineCore::CurrentPeriod;
  using EngineCore::DecayBound;
  using EngineCore::Degraded;
  using EngineCore::id;
  using EngineCore::PoolTokens;
  using EngineCore::Reporting;
  using EngineCore::ReservationTokens;
  using EngineCore::stats;

 private:
  struct Pending {
    std::uint64_t key;
    bool is_write;
    /// Causal id threading one application I/O through the detail trace
    /// (kIoQueued -> kIoIssue -> kIoComplete); dense per engine from 0.
    std::uint64_t io_id;
    CompleteFn done;
  };

  // EnginePort: the simulator clock and the active recorder.
  SimTime Now() override { return sim_.Now(); }
  void Emit(obs::EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override;

  void HandleCtrl(const rdma::WorkCompletion& wc);
  void OnPeriodStart(const PeriodStartMsg& msg);
  void HandleQosCompletion(const rdma::WorkCompletion& wc);
  void TokenTick();
  void WriteReport();
  void TryIssue();
  /// Pops the queue head and hands it to the backend. `token_source` is the
  /// wire encoding for kIoIssue.b: 0 = reservation token, 1 = pool token.
  void IssueOne(std::int64_t token_source);
  void PostTokenFetch();
  /// Books a failed fetch and schedules its backed-off retry.
  void FetchFailedRetry();

  sim::Simulator& sim_;
  std::uint32_t trace_actor_ = 0;
  rdma::Node& node_;
  rdma::QueuePair& qos_qp_;
  rdma::QueuePair& ctrl_qp_;
  QosWiring wiring_;
  IoBackendFn backend_;

  // One FAA in flight at a time, drawn for faa_period_.
  bool faa_in_flight_ = false;
  std::uint32_t faa_period_ = 0;

  std::deque<Pending> queue_;
  std::uint64_t next_io_id_ = 0;

  // Control-plane receive buffers.
  std::vector<std::vector<std::byte>> ctrl_recv_buffers_;

  // 8-byte report payload lives in a registered MR.
  std::vector<std::byte> report_buffer_;
  const rdma::MemoryRegion* report_mr_ = nullptr;

  std::unique_ptr<sim::PeriodicTimer> token_timer_;
  std::unique_ptr<sim::PeriodicTimer> report_timer_;
  std::uint64_t next_wr_id_ = 1;
};

}  // namespace haechi::core
