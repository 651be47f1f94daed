// The client-side QoS engine on real threads (paper §II-D).
//
// The protocol itself is core::EngineCore (core/engine_core.hpp), the same
// code the simulator's core::ClientQosEngine runs. ThreadedEngine is its
// threads runtime:
//
//   * a wall Clock instead of the simulator clock;
//   * runtime::PeriodicTimer threads for token decay and reporting;
//   * the monitor's thread delivering control messages by direct call
//     (the two-sided SEND landing in the ctrl CQ);
//   * worker threads pulling token batches through TryAcquireBatch(),
//     which executes the FAA *inline* against the shared pool shards — so
//     N clients genuinely contend on the shared pool words, which is the
//     point of this backend.
//
// All mutable state sits behind one mutex; every trace event is emitted
// under it with a timestamp read under it (per-actor streams must stay
// time-ordered and seq-dense for the audit's A1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/engine_core.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_fabric.hpp"

namespace haechi::runtime {

class ThreadedEngine : private core::EnginePort {
 public:
  /// The sim engine's stats struct, so differential tests compare like
  /// with like.
  using Stats = core::EngineCore::Stats;

  /// Threaded-runtime-only shard-contention telemetry. Kept separate from
  /// Stats (shared with the sim engine and diffed field-for-field by the
  /// differential tests, so it must not grow runtime-only fields).
  struct RuntimeStats {
    std::uint64_t faa_home_hits = 0;   // home-shard FAA acquired tokens
    std::uint64_t faa_steals = 0;      // non-home-shard FAA acquired tokens
    std::uint64_t faa_dry_probes = 0;  // an FAA probe found its shard empty
    std::uint64_t span_ios = 0;        // detail span triplets emitted
  };

  /// What a TryAcquireBatch poll ended with.
  enum class Grant {
    kToken,       // token(s) consumed; caller owns that many issued I/Os
    kPeriodOver,  // the requested period ended
    kStopped,     // engine stopped; worker should exit
    kNotReady,    // nothing grantable right now (limit throttle, backend
                  // full, end guard, empty pool, degraded)
  };

  /// TryAcquireBatch's result: on kToken, `count` tokens were granted and
  /// the caller must perform exactly that many I/Os and report them via
  /// OnIoCompleted(count).
  struct Batch {
    Grant status = Grant::kNotReady;
    std::int64_t count = 0;
  };

  /// `port`/`slot` come from the monitor's admission (ThreadedWiring).
  ThreadedEngine(Clock& clock, obs::Recorder* recorder, ClientId id,
                 const core::QosConfig& config, ThreadedFabric& fabric,
                 std::size_t port, std::size_t slot);
  ~ThreadedEngine() override;

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  // --- control plane (called from the monitor thread) ---------------------
  void DeliverPeriodStart(const core::PeriodStartMsg& msg);
  void DeliverReportRequest();
  void DeliverOverReserveHint();
  /// Post-restart handshake (DESIGN.md §15): prove liveness with an
  /// immediate report write. Not a period boundary — a degraded engine
  /// stays degraded until the first real DeliverPeriodStart re-syncs it.
  void DeliverRecoverySync();

  /// Quiesces the engine for good; later TryAcquireBatch calls return
  /// kStopped.
  void Stop();

  // --- worker side --------------------------------------------------------

  /// Non-blocking multi-token acquisition for the worker-pool event loop:
  /// grants up to `max_tokens` from the reservation / locally-held global
  /// stock, running at most one probe round of batched remote FAAs (home
  /// shard first, then the rest) when the local stock is dry. One mutex
  /// acquisition amortises over the whole chain. Never parks — kNotReady
  /// tells the caller to service other clients and poll again.
  Batch TryAcquireBatch(std::uint32_t p, std::int64_t max_tokens);

  void OnIoCompleted(std::int64_t n = 1);

  [[nodiscard]] bool Stopped() const;

  [[nodiscard]] ClientId id() const { return core_.id(); }
  [[nodiscard]] Stats StatsSnapshot() const;
  [[nodiscard]] RuntimeStats RuntimeStatsSnapshot() const;
  [[nodiscard]] std::uint32_t CurrentPeriod() const;

 private:
  // EnginePort: the wall clock and the recorder, read under mu_.
  SimTime Now() override { return clock_.Now(); }
  void Emit(obs::EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override;

  void TokenTick();
  void ReportTick();
  void WriteReportLocked();
  /// Detail span events for a granted batch (workers issue at grant time).
  void EmitSpansLocked(const core::EngineCore::Take& take);
  /// One probe round of batched remote FAAs (home shard first, then the
  /// other shards, one FAA each); drops `lk` around each FAA and returns
  /// with it held. An all-empty round arms the pool retry.
  void FetchPoolRoundLocked(std::unique_lock<std::mutex>& lk);

  Clock& clock_;
  obs::Recorder* recorder_;
  ThreadedFabric& fabric_;
  std::size_t port_;
  std::size_t slot_;
  std::size_t shards_;
  std::size_t home_shard_;

  mutable std::mutex mu_;
  core::EngineCore core_;
  RuntimeStats runtime_stats_;
  // Per-IO span support (detail traces only): ids are assigned at grant and
  // completed FIFO — workers issue granted I/Os in order, so the oldest
  // outstanding id completes first.
  std::uint64_t next_io_id_ = 0;
  std::deque<std::uint64_t> outstanding_io_ids_;

  std::unique_ptr<PeriodicTimer> token_timer_;
  std::unique_ptr<PeriodicTimer> report_timer_;
};

}  // namespace haechi::runtime
