#include "core/engine_core.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace haechi::core {

using obs::EventType;

EngineCore::EngineCore(EnginePort& port, ClientId id, const QosConfig& config)
    : port_(port),
      id_(id),
      config_(config),
      fetch_delta_(config.token_batch *
                   std::max<std::int64_t>(config.fetch_batch, 1)),
      max_outstanding_(
          static_cast<std::int64_t>(config.max_backend_outstanding)) {}

std::size_t EngineCore::PeriodStart(const PeriodStartMsg& msg,
                                    std::size_t queued) {
  if (stopped_) return 0;
  const bool resync = degraded_;
  std::size_t shed = 0;
  if (degraded_) {
    // The monitor is back: re-sync onto its provisioning and leave
    // reservation-only pacing. Demand that backlogged while the monitor
    // was down would compete with reservation traffic for many periods
    // and make recovery unbounded, so the runtime sheds all but a bounded
    // catch-up backlog (oldest first — their submitters have long moved
    // on, the same way a node crash drops in-flight completions).
    if (config_.recovery_backlog_periods > 0) {
      const std::size_t keep =
          static_cast<std::size_t>(
              std::max<std::int64_t>(last_provisioned_reservation_, 0)) *
          config_.recovery_backlog_periods;
      if (queued > keep) shed = queued - keep;
      stats_.shed_on_recovery += shed;
    }
    degraded_ = false;
    Emit(EventType::kDegradedExit, static_cast<std::int64_t>(degraded_count_),
         static_cast<std::int64_t>(shed));
    degraded_count_ = 0;
  }
  ++stats_.periods_started;
  period_ = msg.period;
  Emit(EventType::kEnginePeriodStart, msg.reservation_tokens, msg.limit);
  xi_reservation_ = msg.reservation_tokens;
  last_provisioned_reservation_ = msg.reservation_tokens;
  decay_x_ = static_cast<double>(msg.reservation_tokens);
  decay_per_tick_ = static_cast<double>(msg.reservation_tokens) *
                    static_cast<double>(config_.token_tick) /
                    static_cast<double>(config_.period);
  if (resync) {
    // I/Os issued against the last synthetic degraded boundary are still
    // in flight; the fresh grant replaces that synthetic split rather
    // than stacking on top of it. Without the discount the re-sync
    // double-issues up to a full reservation, and the flooded per-flow
    // queues at the data node equalise service across clients for many
    // periods afterwards (unbounded recovery).
    xi_reservation_ =
        std::max<std::int64_t>(xi_reservation_ - backend_outstanding_, 0);
    decay_x_ = static_cast<double>(xi_reservation_);
  }
  local_global_ = 0;
  limit_ = msg.limit;
  stats_.completed_this_period = 0;
  stats_.issued_this_period = 0;
  pool_retry_until_ = 0;
  faa_backoff_ = 0;  // a fresh period forgives past fetch failures
  faa_exhausted_signalled_ = false;
  started_ = true;
  // Reporting stops until the monitor asks again this period.
  reporting_ = false;
  period_started_at_ = port_.Now();
  return shed;
}

bool EngineCore::ReportRequest() {
  if (stopped_ || reporting_) return false;
  reporting_ = true;
  return true;
}

bool EngineCore::Stop() {
  if (stopped_) return false;
  if (started_) Emit(EventType::kEngineStop);
  started_ = false;
  stopped_ = true;
  reporting_ = false;
  degraded_ = false;
  degraded_count_ = 0;
  return true;
}

bool EngineCore::CheckDegraded() {
  // The grace window strictly exceeds one period (config contract), so a
  // healthy run — where every tick sees now - period_started_at_ <= period
  // — never trips this.
  if (!started_ || config_.degraded_grace_permille == 0) return false;
  const SimDuration since = port_.Now() - period_started_at_;
  if (!degraded_) {
    const SimDuration grace =
        config_.period / 1000 * config_.degraded_grace_permille;
    if (since < grace) return false;
    EnterDegraded(grace);
    return true;
  }
  if (since < config_.period ||
      degraded_count_ >= config_.degraded_max_periods) {
    return false;
  }
  DegradedPeriod();
  return true;
}

void EngineCore::Decay() {
  if (!started_) return;
  decay_x_ = std::max(0.0, decay_x_ - decay_per_tick_);
  const auto bound = static_cast<std::int64_t>(std::floor(decay_x_));
  // Insufficient demand: surrender reservation tokens above the backlog
  // bound X. (They are reclaimed by the monitor's token conversion once
  // the client reports.)
  if (xi_reservation_ > bound) {
    Emit(EventType::kTokenDecay, xi_reservation_ - bound, bound);
    xi_reservation_ = bound;
  }
}

void EngineCore::EnterDegraded(SimDuration grace) {
  degraded_ = true;
  degraded_count_ = 0;
  ++stats_.degraded_entries;
  HAECHI_LOG_WARN(
      "engine %u: monitor silent for %lld ns; entering reservation-only "
      "degraded mode",
      Raw(id_), static_cast<long long>(grace));
  Emit(EventType::kDegradedEnter, last_provisioned_reservation_, grace);
  DegradedPeriod();
}

void EngineCore::DegradedPeriod() {
  // Re-arm the last provisioned split and keep pacing on the real period
  // cadence. Global tokens are never carried or fetched — the pool belongs
  // to the (dead) monitor.
  ++degraded_count_;
  ++stats_.degraded_periods;
  period_started_at_ += config_.period;
  xi_reservation_ = last_provisioned_reservation_;
  decay_x_ = static_cast<double>(last_provisioned_reservation_);
  local_global_ = 0;
  stats_.issued_this_period = 0;
  pool_retry_until_ = 0;
  faa_backoff_ = 0;
  faa_exhausted_signalled_ = false;
  Emit(EventType::kDegradedPeriod, xi_reservation_,
       static_cast<std::int64_t>(degraded_count_));
}

bool EngineCore::MayFetch() {
  if (degraded_) return false;
  const SimTime now = port_.Now();
  return now - period_started_at_ < config_.period - config_.faa_end_guard &&
         now >= pool_retry_until_;
}

std::uint32_t EngineCore::FetchPosted(std::size_t shard) {
  ++stats_.faa_ops;
  Emit(EventType::kTokenFetch, fetch_delta_, static_cast<std::int64_t>(shard));
  return period_;
}

std::int64_t EngineCore::FetchDone(std::uint32_t at_period, std::size_t shard,
                                   std::int64_t before, bool has_demand) {
  faa_backoff_ = 0;  // a successful fetch resets the backoff ladder
  if (period_ != at_period || degraded_) {
    // The pool was re-initialised for a new period while the fetch ran,
    // or the engine went degraded and may not spend a dead monitor's
    // pool. The demand that prompted it is still there; the runtime
    // fetches again if the current period allows.
    port_.Emit(EventType::kTokenDiscard, at_period, before, 0, fetch_delta_);
    return kDiscarded;
  }
  const std::int64_t acquired = std::clamp<std::int64_t>(before, 0, fetch_delta_);
  local_global_ += acquired;
  Emit(EventType::kTokenFetchDone, before, acquired, fetch_delta_);
  if (acquired == 0 && has_demand) {
    Emit(EventType::kPoolEmpty, before, static_cast<std::int64_t>(shard));
  }
  return acquired;
}

void EngineCore::ArmPoolRetry() {
  // Step T4: wait for token conversion or the next period, polling the
  // pool at the retry cadence.
  pool_retry_until_ = port_.Now() + config_.pool_retry_interval;
}

std::optional<SimDuration> EngineCore::FetchFailed() {
  ++stats_.faa_failures;
  Emit(EventType::kTokenFetchFail, faa_backoff_);
  if (faa_retry_armed_) return std::nullopt;
  // Exponential backoff: transient fabric faults (dropped FAA, NAK burst)
  // resolve in a retry or two; a dead data node stops costing more than
  // one probe per faa_retry_backoff_max.
  faa_backoff_ = faa_backoff_ == 0
                     ? config_.faa_retry_backoff
                     : std::min<SimDuration>(faa_backoff_ * 2,
                                             config_.faa_retry_backoff_max);
  if (faa_backoff_ >= config_.faa_retry_backoff_max &&
      !faa_exhausted_signalled_) {
    // The ladder is pinned at its ceiling: every further fetch this period
    // is a once-per-backoff_max probe.
    faa_exhausted_signalled_ = true;
    Emit(EventType::kFaaExhausted, faa_backoff_);
  }
  faa_retry_armed_ = true;
  return faa_backoff_;
}

bool EngineCore::FaaRetryDue(std::uint32_t at_period) {
  faa_retry_armed_ = false;
  if (!started_ || period_ != at_period) return false;
  ++stats_.faa_retries;
  return true;
}

std::uint64_t EngineCore::NextReport() {
  const std::int64_t claims =
      xi_reservation_ + local_global_ + backend_outstanding_;
  return PackReport(
      period_, static_cast<std::uint64_t>(std::max<std::int64_t>(claims, 0)),
      static_cast<std::uint64_t>(
          std::max<std::int64_t>(stats_.completed_this_period, 0)),
      report_seq_++);
}

void EngineCore::ReportPosted(std::uint64_t packed) {
  ++stats_.report_writes;
  Emit(EventType::kReportWrite,
       static_cast<std::int64_t>(ReportResidual(packed)),
       static_cast<std::int64_t>(ReportCompleted(packed)),
       static_cast<std::int64_t>(stats_.report_writes));
}

}  // namespace haechi::core
