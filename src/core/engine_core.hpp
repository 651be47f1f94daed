// The client-side QoS engine protocol (paper §II-D), free of any transport.
//
// Every application I/O passes through the engine, which:
//
//  * gates each I/O on a token — a reservation token (xi_reservation,
//    granted by the monitor each period) or a global token fetched from
//    the data node's pool with a remote FAA in batches of
//    B = token_batch * fetch_batch (step T3);
//  * decays unused reservation tokens every delta = 1 ms toward the
//    backlog bound X = R_i - rho_i(t), returning slack to the system
//    (client token management);
//  * once signalled, silently reports {residual claims, completed I/Os}
//    every 1 ms with a single 8-byte one-sided WRITE (client reporting);
//  * enforces the client's per-period limit L_i by throttling;
//  * falls back to reservation-only pacing when the monitor goes silent
//    (degraded mode, DESIGN.md §15).
//
// EngineCore owns every protocol step and all engine state. A runtime
// reaches the clock and the trace only through an EnginePort; it performs
// the FAAs and report WRITEs itself and feeds their outcomes back.
// core::ClientQosEngine (simulated verbs) and runtime::ThreadedEngine
// (real threads and atomics) are the two runtimes; they own timers,
// transport, request queueing and locking and nothing else.
//
// The per-I/O steps (Room, TakeTokens, Complete) are inline and never
// touch the port; only control-path steps do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

/// Everything the engine protocol needs from its runtime. Calls arrive
/// from whatever context the runtime drives the core in (the simulator
/// thread, or a thread holding the threaded engine's mutex).
class EnginePort {
 public:
  EnginePort() = default;
  EnginePort(const EnginePort&) = delete;
  EnginePort& operator=(const EnginePort&) = delete;
  virtual ~EnginePort() = default;

  virtual SimTime Now() = 0;
  /// One engine trace event; the port stamps its actor and time.
  virtual void Emit(obs::EventType type, std::uint32_t period,
                    std::int64_t a, std::int64_t b, std::int64_t c) = 0;
};

class EngineCore {
 public:
  struct Stats {
    std::uint64_t periods_started = 0;
    std::int64_t completed_this_period = 0;   // N_i
    std::int64_t issued_this_period = 0;
    std::int64_t completed_total = 0;
    std::uint64_t faa_ops = 0;
    std::uint64_t report_writes = 0;
    std::uint64_t rejected_submits = 0;
    std::uint64_t limit_throttle_events = 0;
    std::int64_t tokens_from_reservation = 0;
    std::int64_t tokens_from_pool = 0;
    std::uint64_t over_reserve_hints = 0;
    /// Token fetches that failed (post rejected or error completion).
    std::uint64_t faa_failures = 0;
    /// Backed-off re-attempts after failed fetches.
    std::uint64_t faa_retries = 0;
    /// Report writes that failed (post rejected or error completion).
    std::uint64_t report_failures = 0;
    /// Degraded mode (DESIGN.md §15): times the engine fell back to
    /// reservation-only pacing because the monitor went silent, and the
    /// synthetic reservation-only periods it self-issued while degraded.
    std::uint64_t degraded_entries = 0;
    std::uint64_t degraded_periods = 0;
    /// Stale queued requests dropped on monitor re-sync (bounded recovery;
    /// see QosConfig::recovery_backlog_periods).
    std::uint64_t shed_on_recovery = 0;
  };

  /// Tokens granted by one TakeTokens call: the first `from_reservation`
  /// are reservation tokens, the rest locally-held pool tokens.
  struct Take {
    std::int64_t granted = 0;
    std::int64_t from_reservation = 0;
  };

  /// FetchDone's result for a fetch whose tokens were thrown away.
  static constexpr std::int64_t kDiscarded = -1;

  EngineCore(EnginePort& port, ClientId id, const QosConfig& config);

  // --- control plane (the monitor's two-sided messages) -------------------

  /// A period start: fresh reservation tokens replace every leftover
  /// (reservation and global). On the first start after degraded mode it
  /// returns how many of the runtime's `queued` oldest requests to shed.
  /// A stopped engine ignores it (returns 0).
  std::size_t PeriodStart(const PeriodStartMsg& msg, std::size_t queued);
  /// True when the runtime must write a report now and start its report
  /// cadence; duplicates (half-lease retransmissions) and a stopped engine
  /// return false.
  bool ReportRequest();
  void OverReserveHint() { ++stats_.over_reserve_hints; }
  /// Quiesces the engine for good (client crash or teardown; a restarted
  /// client runs a new engine). False when it was already stopped.
  bool Stop();

  // --- the token tick -----------------------------------------------------

  /// Degraded-mode detection and synthetic reservation-only boundaries.
  /// True when a boundary re-armed the reservation: the runtime re-drives
  /// issue before the tick's Decay().
  bool CheckDegraded();
  /// Surrenders reservation tokens above the decayed backlog bound X.
  void Decay();

  // --- data path ----------------------------------------------------------

  /// Tokens grantable now, at most `want`: the per-period limit and the
  /// backend-outstanding cap apply. A limit that bites counts a throttle.
  std::int64_t Room(std::int64_t want) {
    want = std::max<std::int64_t>(want, 0);
    if (limit_ > 0) {
      const std::int64_t left = limit_ - stats_.issued_this_period;
      if (left <= 0) {
        ++stats_.limit_throttle_events;
        return 0;
      }
      want = std::min(want, left);
    }
    return std::clamp<std::int64_t>(max_outstanding_ - backend_outstanding_,
                                    0, want);
  }

  /// Takes up to `want` tokens, reservation first, then locally-held pool
  /// tokens, and books them as issued and outstanding.
  Take TakeTokens(std::int64_t want) {
    Take take;
    take.from_reservation =
        std::clamp<std::int64_t>(xi_reservation_, 0, want);
    const std::int64_t from_pool = std::clamp<std::int64_t>(
        local_global_, 0, want - take.from_reservation);
    xi_reservation_ -= take.from_reservation;
    local_global_ -= from_pool;
    stats_.tokens_from_reservation += take.from_reservation;
    stats_.tokens_from_pool += from_pool;
    take.granted = take.from_reservation + from_pool;
    stats_.issued_this_period += take.granted;
    backend_outstanding_ += take.granted;
    return take;
  }

  /// `n` issued I/Os completed.
  void Complete(std::int64_t n) {
    backend_outstanding_ -= n;
    stats_.completed_this_period += n;
    stats_.completed_total += n;
  }

  /// Whether a token fetch may start now. Never while degraded (the pool
  /// belongs to the silent monitor, and a recovered one re-initialises
  /// it), never within faa_end_guard of the period end (a batch in flight
  /// at the rollover is discarded), and not before the step-T4 retry
  /// instant after an empty pool.
  [[nodiscard]] bool MayFetch();

  // --- token fetches ------------------------------------------------------

  /// Tokens one remote FAA draws: token_batch * fetch_batch.
  [[nodiscard]] std::int64_t FetchDelta() const { return fetch_delta_; }
  /// A fetch of FetchDelta() tokens went out on `shard`. Returns the period
  /// it draws for, to hand back to FetchDone.
  std::uint32_t FetchPosted(std::size_t shard);
  /// A fetch returned the pre-FAA word `before`. Its tokens are discarded
  /// when the period rolled while it ran or the engine went degraded;
  /// otherwise up to FetchDelta() of them are credited. Returns the tokens
  /// credited or kDiscarded. An empty result with `has_demand` emits
  /// kPoolEmpty; the runtime then calls ArmPoolRetry once it gives up.
  std::int64_t FetchDone(std::uint32_t at_period, std::size_t shard,
                         std::int64_t before, bool has_demand);
  /// Step T4: no re-fetch before pool_retry_interval from now.
  void ArmPoolRetry();
  /// A fetch failed (post rejected or error completion). Returns the delay
  /// after which the runtime calls FaaRetryDue, doubling per consecutive
  /// failure up to faa_retry_backoff_max, or nullopt when a retry is
  /// already armed.
  std::optional<SimDuration> FetchFailed();
  /// The armed failure retry fired; true when it should re-drive issue.
  bool FaaRetryDue(std::uint32_t at_period);

  // --- reports ------------------------------------------------------------

  /// The next report word (core::PackReport format). The residual is the
  /// client's outstanding *claim* on the rest of the period: unconsumed
  /// reservation tokens (decay-adjusted), plus locally-held pool tokens,
  /// plus I/Os issued but not yet completed. Reporting claims — rather than
  /// just xi_reservation — keeps the monitor's token conversion from
  /// re-granting capacity that in-flight I/Os will consume (the paper's L,
  /// generalised to all token-backed claims; see DESIGN.md §6).
  std::uint64_t NextReport();
  void ReportPosted(std::uint64_t packed);
  void ReportFailed() { ++stats_.report_failures; }
  /// The runtime's request queue was full.
  void SubmitRejected() { ++stats_.rejected_submits; }

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] const QosConfig& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t ReservationTokens() const {
    return xi_reservation_;
  }
  [[nodiscard]] std::int64_t PoolTokens() const { return local_global_; }
  [[nodiscard]] double DecayBound() const { return decay_x_; }
  [[nodiscard]] std::uint32_t CurrentPeriod() const { return period_; }
  [[nodiscard]] std::int64_t BackendOutstanding() const {
    return backend_outstanding_;
  }
  [[nodiscard]] bool Started() const { return started_; }
  [[nodiscard]] bool Stopped() const { return stopped_; }
  [[nodiscard]] bool Reporting() const { return reporting_; }
  /// True while the engine is in reservation-only degraded mode.
  [[nodiscard]] bool Degraded() const { return degraded_; }

 private:
  void EnterDegraded(SimDuration grace);
  /// One synthetic reservation-only boundary on the real period cadence.
  void DegradedPeriod();
  void Emit(obs::EventType type, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0) {
    port_.Emit(type, period_, a, b, c);
  }

  EnginePort& port_;
  ClientId id_;
  const QosConfig config_;
  const std::int64_t fetch_delta_;
  const std::int64_t max_outstanding_;

  // Token state (the paper's xi_reservation, X, and the local batch of
  // global tokens).
  std::int64_t xi_reservation_ = 0;
  double decay_x_ = 0.0;
  double decay_per_tick_ = 0.0;
  std::int64_t local_global_ = 0;
  std::int64_t limit_ = 0;  // <=0: unlimited
  std::uint32_t period_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool reporting_ = false;
  SimTime period_started_at_ = 0;
  std::int64_t backend_outstanding_ = 0;

  // Degraded mode (DESIGN.md §15): when no period start arrives within the
  // grace window the engine paces itself from the last provisioned
  // reservation — no pool FAA, synthetic boundaries aligned to the real
  // cadence, bounded by degraded_max_periods. completed_this_period and
  // period_ are deliberately NOT reset on synthetic boundaries (report
  // monotonicity: the recovered monitor must never read a count rollback).
  bool degraded_ = false;
  std::uint32_t degraded_count_ = 0;
  std::int64_t last_provisioned_reservation_ = 0;

  // Fetch state. After an empty pool, no re-fetch before
  // pool_retry_until_. Failure backoff: current delay (0 = healthy),
  // doubling per consecutive failure; kFaaExhausted at most once per
  // period (one saturation signal, not one per probe).
  SimTime pool_retry_until_ = 0;
  SimDuration faa_backoff_ = 0;
  bool faa_retry_armed_ = false;
  bool faa_exhausted_signalled_ = false;

  // Makes consecutive report words bitwise distinct so the monitor's lease
  // sees an idle client as alive.
  std::uint8_t report_seq_ = 0;
  Stats stats_;
};

}  // namespace haechi::core
