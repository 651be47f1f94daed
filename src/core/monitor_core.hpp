// The data-node QoS monitor protocol (paper §II-E), free of any transport.
//
// Responsibilities per QoS period:
//   T1  dispatch fresh reservation tokens to every admitted client and
//       initialise the global pool to C - sum(R_i);
//   S1  wake every check interval and observe the global pool;
//   S2/S3 on the first observed decrease, ask all clients to begin
//       periodic reporting;
//   T2  token conversion: xi_global <- max{C*(T-t)/T - L, 0}, where L is
//       the sum of last-reported residual reservations — reclaiming tokens
//       surrendered by low-demand clients while capping the pool to the
//       capacity remaining in the period;
//   T3  at the period boundary, feed the reported completion total into
//       Algorithm 1 (CapacityEstimator) and flag persistently under-using
//       clients.
// Around that core it runs admission, the report lease, cross-server
// lending, checkpoint/crash/recovery (DESIGN.md §15) and the closed-loop
// control boundary (DESIGN.md §14).
//
// MonitorCore owns every protocol step and all monitor state. A runtime
// reaches the shared memory, the clients and the clock only through a
// MonitorPort: an N-shard pool (Load/Exchange/Cas/Add), the report slots,
// one Send for the two-sided control messages, Now() and a trace hook.
// core::QosMonitor (simulated verbs) and runtime::ThreadedMonitor (real
// threads and atomics) are the two ports; they own timers, transport and
// locking and nothing else.
//
// The pool may be split over several shards (each client FAAs its home
// shard). The monitor keeps the ledger exact on the shard *sum* by
// telescoping raw differences against the last value it witnessed per
// shard, so client draws racing any monitor operation are never lost:
// boundaries exchange, conversions and rebalances CAS, lends CAS and
// absorbs/rebalance receivers add.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/admission.hpp"
#include "core/capacity_estimator.hpp"
#include "core/config.hpp"
#include "core/control/controller.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

/// A two-sided control message from the monitor to one client's engine.
using MonitorMessage = std::variant<PeriodStartMsg, ReportRequestMsg,
                                    OverReserveHintMsg, RecoverySyncMsg>;

/// Everything the protocol needs from its runtime. Calls arrive from
/// whatever context the runtime drives the core in (the simulator thread,
/// or a thread holding the threaded monitor's mutex).
class MonitorPort {
 public:
  MonitorPort() = default;
  MonitorPort(const MonitorPort&) = delete;
  MonitorPort& operator=(const MonitorPort&) = delete;
  virtual ~MonitorPort() = default;

  // Pool shards. Load reads one shard; Exchange installs `value` and
  // returns the old word; Cas replaces `expected` with `desired` or
  // refreshes `expected` and fails; Add returns the pre-add word.
  virtual std::int64_t Load(std::size_t shard) = 0;
  virtual std::int64_t Exchange(std::size_t shard, std::int64_t value) = 0;
  virtual bool Cas(std::size_t shard, std::int64_t& expected,
                   std::int64_t desired) = 0;
  virtual std::int64_t Add(std::size_t shard, std::int64_t delta) = 0;

  /// Packed report (core::PackReport format) in a client's slot.
  virtual std::uint64_t ReadSlot(std::size_t slot) = 0;
  virtual void PrimeSlot(std::size_t slot, std::uint64_t packed) = 0;

  /// Delivers a control message to the client occupying `slot`.
  virtual void Send(std::size_t slot, const MonitorMessage& msg) = 0;

  virtual SimTime Now() = 0;
  virtual void Emit(obs::ActorKind kind, std::uint32_t actor,
                    obs::EventType type, std::uint32_t period, std::int64_t a,
                    std::int64_t b, std::int64_t c) = 0;

  /// The pool value the S1/S2 check acts on, given the shard sum the
  /// ledger just sampled. A runtime that observes the pool through another
  /// path (the simulator's loopback CAS) returns its own observation.
  virtual std::int64_t ObservePool(std::int64_t sampled) { return sampled; }
};

/// Profiled IOPS over one QoS period, rounded to whole tokens.
std::int64_t IopsToTokens(double iops, SimDuration period);

class MonitorCore {
 public:
  /// Report slots (and so admitted clients) per monitor.
  static constexpr std::size_t kMaxClients = 64;

  struct Stats {
    std::uint32_t periods = 0;
    std::uint64_t checks = 0;
    std::uint64_t conversions = 0;
    std::uint64_t report_signals = 0;
    std::uint64_t over_reserve_hints = 0;
    std::int64_t last_period_completions = 0;
    /// Clients declared dead by the report lease.
    std::uint64_t lease_expirations = 0;
    /// AdmitClient calls that replaced a still-admitted incarnation of the
    /// same client id (post-restart re-admission handshake).
    std::uint64_t readmissions = 0;
    /// Residual claims reclaimed from dead clients (tokens).
    std::int64_t reclaimed_tokens = 0;
    /// Half-lease ReportRequest retransmissions to silent clients.
    std::uint64_t report_request_resends = 0;
    /// Sharded-pool rebalance passes that moved tokens, and the tokens
    /// moved (always 0 with one shard).
    std::uint64_t rebalances = 0;
    std::int64_t rebalanced_tokens = 0;
    /// Cross-server borrowing (cluster deployments): tokens this monitor
    /// lent out of its pool and absorbed into it.
    std::int64_t lent_tokens = 0;
    std::int64_t absorbed_tokens = 0;
    /// Control-plane survivability (DESIGN.md §15): scripted monitor
    /// crashes taken and recoveries completed from the checkpoint.
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
  };

  /// Pool contention telemetry. Separate from Stats, which the
  /// differential tests compare field-for-field across runtimes.
  struct RuntimeStats {
    std::uint64_t convert_cas_retries = 0;  // conversion CAS lost to a FAA
    std::uint64_t shard_samples = 0;        // kShardSample events emitted
  };

  /// Per-period token ledger, one entry per started period. All fields are
  /// exact (raw-difference telescoping over the pool operations), so tests
  /// can assert conservation identities:
  ///   initial_pool + minted + absorbed - granted - lent == end_pool
  ///                                                        (always)
  ///   dispatched + initial_pool == capacity                (when
  ///                                        dispatched <= capacity)
  struct PeriodLedger {
    std::uint32_t period = 0;
    /// Capacity estimate the period was provisioned with (T * C_hat).
    std::int64_t capacity = 0;
    /// Reservation tokens dispatched at T1 (sum of R_i).
    std::int64_t dispatched = 0;
    std::int64_t initial_pool = 0;
    /// Net pool adjustment by token conversion: positive mints recycled
    /// tokens, negative expires them as the period drains.
    std::int64_t minted = 0;
    /// Pool tokens drawn by client FAAs (observed word decreases).
    std::int64_t granted = 0;
    /// Portion of `minted` attributable to dead-client reclamation.
    std::int64_t reclaimed = 0;
    /// Pool sum at the period boundary (pre-re-initialisation).
    std::int64_t end_pool = 0;
    /// Cross-server borrow movements (cluster deployments): tokens this
    /// monitor lent to peers and absorbed from peers this period.
    std::int64_t lent = 0;
    std::int64_t absorbed = 0;
    /// The monitor crashed inside this period: the entry never closed
    /// (no period-end emit, end_pool left at its creation value) and the
    /// conservation identities deliberately do not apply to it.
    bool crashed = false;
  };

  /// Epoch-stamped provisioning snapshot a restarted monitor recovers from
  /// (DESIGN.md §15). Conceptually lives in the registered control region:
  /// it survives a monitor *process* crash exactly because the region (pool
  /// shards, report slots) does. A client's control channel is keyed by
  /// its slot, so the snapshot needs no transport handle.
  struct Checkpoint {
    struct Client {
      ClientId id{};
      std::int64_t reservation = 0;
      std::int64_t limit = 0;
      std::size_t slot = 0;
    };
    bool valid = false;
    std::uint32_t epoch = 0;  // period the snapshot was taken at
    std::int64_t reservation_sum = 0;
    std::int64_t pool_word = 0;  // initial pool the epoch was provisioned with
    std::int64_t capacity = 0;
    std::vector<Client> clients;
  };

  /// (period index just ended, total reported completions, capacity
  /// estimate for the next period), fired at each boundary after
  /// calibration.
  using PeriodHook =
      std::function<void(std::uint32_t, std::int64_t, std::int64_t)>;
  /// (period, client, completed) for every fresh per-period client report
  /// seen at calibration.
  using ClientReportHook =
      std::function<void(std::uint32_t, ClientId, std::int64_t)>;

  /// Capacities in IOPS, as profiled (Experiment Set 1). The pool has
  /// `shards` words behind `port` (1 is the paper's single word).
  MonitorCore(MonitorPort& port, const QosConfig& config,
              double profiled_global_iops, double profiled_local_iops,
              std::size_t shards);

  MonitorCore(const MonitorCore&) = delete;
  MonitorCore& operator=(const MonitorCore&) = delete;

  /// Admits a client (both capacity constraints enforced), allocates and
  /// primes its report slot, and returns the slot. An already-admitted id
  /// is re-admitted (its previous incarnation released) once the new
  /// arguments are valid. Bind the client's control channel to the slot,
  /// then call OnChannelBound.
  Result<std::size_t> AdmitClient(ClientId client, std::int64_t reservation,
                                  std::int64_t limit);
  /// The client's control channel is bound: if the period's ReportRequest
  /// broadcast predates it, ask it directly, or its silent slot would trip
  /// the report lease.
  void OnChannelBound(ClientId client);
  Status ReleaseClient(ClientId client);
  /// Changes an admitted client's reservation, enforcing its limit and both
  /// capacity constraints; the next period dispatches it.
  Status UpdateReservation(ClientId client, std::int64_t reservation);
  [[nodiscard]] Result<std::int64_t> ReservationOf(ClientId client) const;
  [[nodiscard]] Result<std::size_t> SlotOf(ClientId client) const;

  /// Cross-server borrowing (cluster coordinator only). LendTokens drains
  /// up to `want` tokens from the pool — never below zero — and returns
  /// the amount actually removed; AbsorbTokens credits tokens borrowed
  /// from peer node `peer` and returns the amount credited (0 before the
  /// first period). Both are exact ledger movements (`lent`/`absorbed`),
  /// and the running net credit feeds token conversion so a conversion
  /// pass neither re-mints lent tokens nor clobbers absorbed ones.
  std::int64_t LendTokens(std::int64_t want, std::uint32_t peer);
  std::int64_t AbsorbTokens(std::int64_t tokens, std::uint32_t peer);

  /// True when `client`'s report slot holds a report written this period
  /// (as opposed to the boundary prime or a stale cross-boundary write).
  [[nodiscard]] bool HasFreshReport(ClientId client) const;
  /// Last values read from a client's report slot.
  [[nodiscard]] std::uint32_t LastResidual(ClientId client) const;
  [[nodiscard]] std::uint32_t LastCompleted(ClientId client) const;

  /// The runtime's timers drive these two. Both are no-ops while the
  /// monitor is not running; CheckTick also before the first period.
  void StartPeriod();
  void CheckTick();

  void SetRunning(bool running) { running_ = running; }
  [[nodiscard]] bool running() const { return running_; }

  /// The monitor process dies: the live client table is lost (the shared
  /// region — pool, report slots — and the checkpoint survive). Returns
  /// false when already crashed. The runtime stops its timers.
  bool Crash();
  /// Restart from the checkpoint (the runtime has SetRunning(true)):
  /// reconcile it against the live report slots, send RecoverySync to
  /// every restored client and provision a fresh period without closing
  /// the crashed period's ledger entry.
  void Recover();
  [[nodiscard]] bool Crashed() const { return crashed_; }
  [[nodiscard]] const Checkpoint& checkpoint() const { return checkpoint_; }

  void SetTraceActor(std::uint32_t actor) { trace_actor_ = actor; }
  [[nodiscard]] std::uint32_t trace_actor() const { return trace_actor_; }

  /// Index of the current QoS period (0 before the first).
  [[nodiscard]] std::uint32_t CurrentPeriod() const { return stats_.periods; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RuntimeStats& runtime_stats() const {
    return runtime_stats_;
  }
  [[nodiscard]] const std::vector<PeriodLedger>& ledger() const {
    return ledger_;
  }
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] const CapacityEstimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] std::int64_t InitialPool() const { return initial_pool_; }
  [[nodiscard]] std::int64_t PeriodCapacity() const {
    return period_capacity_;
  }
  [[nodiscard]] bool ReportingActive() const { return reporting_active_; }

  void SetOverReserveCallback(std::function<void(ClientId)> fn) {
    over_reserve_cb_ = std::move(fn);
  }
  void SetClientDeadCallback(std::function<void(ClientId)> fn) {
    client_dead_cb_ = std::move(fn);
  }
  void SetPeriodHook(PeriodHook fn) { period_hook_ = std::move(fn); }
  void SetClientReportHook(ClientReportHook fn) {
    client_report_hook_ = std::move(fn);
  }
  /// Wires the closed-loop controller (null unwires). `readmit` is invoked
  /// for kReadmit actions and must defer the actual re-admission.
  void SetController(control::QosController* controller,
                     std::function<void(ClientId)> readmit) {
    controller_ = controller;
    readmit_cb_ = std::move(readmit);
  }

 private:
  struct ClientEntry {
    ClientId id;
    std::int64_t reservation = 0;
    std::int64_t limit = 0;
    std::size_t slot = 0;  // index into the report-slot array
    std::uint32_t underuse_streak = 0;
    // Report-lease state: raw slot bytes at the last check and the number
    // of consecutive checks they stayed identical (the report seq field
    // guarantees a live client changes them every report_interval).
    std::uint64_t last_slot_raw = 0;
    std::uint32_t lease_misses = 0;
    // Slot bytes as primed at the period boundary; a slot equal to its
    // prime has not received a real report this period.
    std::uint64_t primed_slot_raw = 0;
  };

  void Emit(obs::EventType type, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0);
  /// Primes a client's slot with a conservative report tagged `period` and
  /// re-baselines its lease on those bytes.
  void Prime(ClientEntry& entry, std::uint32_t period);
  [[nodiscard]] bool IsCurrent(std::uint64_t report) const;
  [[nodiscard]] std::int64_t ShardShare(std::int64_t total,
                                        std::size_t shard) const;
  /// Folds the client draws a witnessed shard value reveals into the
  /// ledger and records `now_tracked` as the shard's new tracked value.
  void Witness(std::size_t shard, std::int64_t raw, std::int64_t now_tracked);
  void CaptureCheckpoint();
  void RunControlBoundary();
  void ActivateReporting(std::int64_t observed_pool);
  void CheckLeases();
  void DeclareDead(ClientId client);
  void ConvertTokens();
  void Rebalance();
  void Calibrate();
  [[nodiscard]] std::size_t AllocateSlot();
  [[nodiscard]] const ClientEntry* FindClient(ClientId client) const;

  MonitorPort& port_;
  QosConfig config_;
  AdmissionController admission_;
  CapacityEstimator estimator_;
  std::size_t shards_;

  std::vector<ClientEntry> clients_;
  std::size_t next_slot_ = 0;  // high-water mark of the slot array
  // Slots of released/dead clients are quarantined until the next period
  // boundary (any in-flight stale WRITE to them lands within the current
  // period) and only then become reusable — without reuse, kMaxClients
  // crash/restart cycles would exhaust the slot array for good.
  std::vector<std::size_t> retired_slots_;
  std::vector<std::size_t> free_slots_;
  Stats stats_;
  RuntimeStats runtime_stats_;
  bool running_ = false;
  std::uint32_t trace_actor_ = 0;
  // Survivability state: the last provisioning checkpoint, whether the
  // monitor is currently crashed, the clients that were live at crash time
  // ("wreckage": id + slot — reconciled against the checkpoint on
  // recovery), and a one-boundary latch that makes the first StartPeriod
  // after recovery skip everything that assumes a period actually ran
  // (ledger close, calibration, control boundary, slot recycling).
  Checkpoint checkpoint_;
  bool crashed_ = false;
  bool recovered_pending_ = false;
  std::vector<std::pair<ClientId, std::size_t>> wreckage_;
  // Net cross-server borrow movement this period (absorbed - lent); token
  // conversion adds it to the pool target so borrowing survives the next
  // conversion overwrite. Reset at every period boundary.
  std::int64_t borrow_credit_ = 0;
  SimTime period_start_time_ = 0;
  std::int64_t period_capacity_ = 0;
  std::int64_t initial_pool_ = 0;
  bool reporting_active_ = false;
  // Grant tracking: the pool only decreases between monitor writes (client
  // FAAs), so (last written - observed) measures tokens handed out. Recent
  // grants are not yet visible in client reports (reporting lag), and
  // token conversion must not re-mint them.
  std::int64_t last_written_pool_ = 0;
  std::deque<std::int64_t> recent_grants_;
  // Token ledger bookkeeping: the last value the monitor wrote or
  // witnessed per shard, so every decrease between samples is attributed
  // to client grants exactly.
  std::vector<PeriodLedger> ledger_;
  std::vector<std::int64_t> shard_last_pool_;
  // Completion counts salvaged from clients that died mid-period; folded
  // into Calibrate's total so capacity estimation does not see a phantom
  // capacity drop.
  std::int64_t dead_completed_this_period_ = 0;

  std::function<void(ClientId)> over_reserve_cb_;
  std::function<void(ClientId)> client_dead_cb_;
  PeriodHook period_hook_;
  ClientReportHook client_report_hook_;
  control::QosController* controller_ = nullptr;
  std::function<void(ClientId)> readmit_cb_;
  // Latched by a kForceConversion action: every subsequent period starts
  // with reporting active instead of waiting for S2 (which can never fire
  // when the initial pool is zero — the W6 starvation deadlock).
  bool force_reporting_ = false;
};

}  // namespace haechi::core
