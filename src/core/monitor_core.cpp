#include "core/monitor_core.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::core {

using obs::ActorKind;
using obs::EventType;

namespace {

/// Algorithm 1's parameters: sigma and eta are configured in tokens, or as
/// fractions of the profiled per-period capacity.
CapacityEstimator::Params EstimatorParams(const QosConfig& config,
                                          double profiled_global_iops) {
  const std::int64_t profiled =
      IopsToTokens(profiled_global_iops, config.period);
  const auto fraction = [profiled](double f) {
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(profiled) * f));
  };
  return {.profiled = profiled,
          .sigma = config.sigma > 0 ? config.sigma
                                    : fraction(config.sigma_fraction),
          .eta = config.eta > 0 ? config.eta : fraction(config.eta_fraction),
          .window = config.history_window};
}

}  // namespace

std::int64_t IopsToTokens(double iops, SimDuration period) {
  return static_cast<std::int64_t>(std::llround(iops * ToSeconds(period)));
}

MonitorCore::MonitorCore(MonitorPort& port, const QosConfig& config,
                         double profiled_global_iops,
                         double profiled_local_iops, std::size_t shards)
    : port_(port),
      config_(config),
      admission_(IopsToTokens(profiled_global_iops, config.period),
                 IopsToTokens(profiled_local_iops, config.period)),
      estimator_(EstimatorParams(config, profiled_global_iops)),
      shards_(shards),
      shard_last_pool_(shards, 0) {
  HAECHI_EXPECTS(shards >= 1);
}

void MonitorCore::Emit(EventType type, std::int64_t a, std::int64_t b,
                       std::int64_t c) {
  port_.Emit(ActorKind::kMonitor, trace_actor_, type, stats_.periods, a, b,
             c);
}

void MonitorCore::Prime(ClientEntry& entry, std::uint32_t period) {
  port_.PrimeSlot(entry.slot,
                  PackReport(period,
                             static_cast<std::uint64_t>(
                                 std::max<std::int64_t>(entry.reservation, 0)),
                             0));
  entry.last_slot_raw = port_.ReadSlot(entry.slot);
  entry.primed_slot_raw = entry.last_slot_raw;
  entry.lease_misses = 0;
}

bool MonitorCore::IsCurrent(std::uint64_t report) const {
  return ReportPeriod(report) == (stats_.periods & kReportPeriodMask);
}

std::int64_t MonitorCore::ShardShare(std::int64_t total,
                                     std::size_t shard) const {
  const auto n = static_cast<std::int64_t>(shards_);
  if (total <= 0) return 0;
  return total / n + (static_cast<std::int64_t>(shard) < total % n ? 1 : 0);
}

void MonitorCore::Witness(std::size_t shard, std::int64_t raw,
                          std::int64_t now_tracked) {
  ledger_.back().granted += shard_last_pool_[shard] - raw;
  shard_last_pool_[shard] = now_tracked;
}

Result<std::size_t> MonitorCore::AdmitClient(ClientId client,
                                             std::int64_t reservation,
                                             std::int64_t limit) {
  // Validate before anything is released: a malformed re-admission must
  // leave the live incarnation untouched.
  if (limit > 0 && limit < reservation) {
    return ErrInvalidArgument("limit below reservation");
  }
  const bool readmission = FindClient(client) != nullptr;
  if (readmission) {
    // Re-admission handshake: a restarted client admits under its old id
    // before the report lease caught its previous incarnation. Retire the
    // stale entry first so neither its admission slot nor its report slot
    // leaks.
    const Status released = ReleaseClient(client);
    HAECHI_ASSERT(released.ok());
    ++stats_.readmissions;
  }
  if (clients_.size() >= kMaxClients) {
    return ErrResourceExhausted("monitor is at its client capacity");
  }
  if (free_slots_.empty() && next_slot_ >= kMaxClients) {
    return ErrResourceExhausted("all report slots consumed");
  }
  if (auto s = admission_.Admit(client, reservation); !s.ok()) {
    Emit(EventType::kAdmitReject, static_cast<std::int64_t>(Raw(client)),
         reservation);
    return s;
  }
  Emit(readmission ? EventType::kReadmit : EventType::kAdmit,
       static_cast<std::int64_t>(Raw(client)), reservation, limit);

  ClientEntry entry{.id = client,
                    .reservation = reservation,
                    .limit = limit,
                    .slot = AllocateSlot()};
  // Prime the (possibly recycled) slot with a stale-tagged conservative
  // report so leftover bytes from a previous occupant cannot be read as
  // this client's data, then baseline the lease on those bytes.
  Prime(entry, stats_.periods - 1);
  clients_.push_back(entry);
  return entry.slot;
}

void MonitorCore::OnChannelBound(ClientId client) {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr || !reporting_active_) return;
  port_.Send(entry->slot, ReportRequestMsg{.period = stats_.periods});
}

Status MonitorCore::ReleaseClient(ClientId client) {
  const auto it = std::ranges::find(clients_, client, &ClientEntry::id);
  if (it == clients_.end()) return ErrNotFound("client not admitted");
  // Quarantine the slot until the next period boundary: a report WRITE the
  // departing client already has in flight must not land in a stranger's
  // recycled slot. Live slots are never compacted (address stability).
  retired_slots_.push_back(it->slot);
  clients_.erase(it);
  Emit(EventType::kRelease, static_cast<std::int64_t>(Raw(client)));
  return admission_.Release(client);
}

std::size_t MonitorCore::AllocateSlot() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return next_slot_++;
}

Status MonitorCore::UpdateReservation(ClientId client,
                                      std::int64_t reservation) {
  const auto it = std::ranges::find(clients_, client, &ClientEntry::id);
  if (it == clients_.end()) return ErrNotFound("client not admitted");
  if (it->limit > 0 && reservation > it->limit) {
    return ErrInvalidArgument("reservation above the client's limit");
  }
  if (auto s = admission_.Update(client, reservation); !s.ok()) return s;
  const std::int64_t previous = std::exchange(it->reservation, reservation);
  Emit(EventType::kReservationUpdate, static_cast<std::int64_t>(Raw(client)),
       reservation, previous);
  return Status::Ok();
}

Result<std::int64_t> MonitorCore::ReservationOf(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  return entry->reservation;
}

Result<std::size_t> MonitorCore::SlotOf(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  return entry->slot;
}

std::int64_t MonitorCore::LendTokens(std::int64_t want, std::uint32_t peer) {
  if (want <= 0 || stats_.periods == 0) return 0;
  // Drain shards in order, each by CAS so a racing client draw is
  // witnessed rather than overwritten; never below zero. Movement since
  // the last witness is client grants; the lend itself is a separate
  // ledger line.
  std::int64_t raw_sum = 0;
  std::int64_t lent = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    std::int64_t expected = port_.Load(s);
    std::int64_t take = 0;
    for (;;) {
      take = std::min(want - lent, std::max<std::int64_t>(expected, 0));
      if (take <= 0 || port_.Cas(s, expected, expected - take)) break;
    }
    raw_sum += expected;
    if (take <= 0) continue;
    Witness(s, expected, expected - take);
    lent += take;
  }
  if (lent <= 0) return 0;
  ledger_.back().lent += lent;
  last_written_pool_ = raw_sum - lent;
  borrow_credit_ -= lent;
  stats_.lent_tokens += lent;
  Emit(EventType::kPoolBorrowOut, raw_sum, raw_sum - lent,
       static_cast<std::int64_t>(peer));
  return lent;
}

std::int64_t MonitorCore::AbsorbTokens(std::int64_t tokens,
                                       std::uint32_t peer) {
  if (tokens <= 0 || stats_.periods == 0) return 0;
  std::int64_t raw_sum = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    const std::int64_t share = ShardShare(tokens, s);
    const std::int64_t before = port_.Add(s, share);
    raw_sum += before;
    Witness(s, before, before + share);
  }
  ledger_.back().absorbed += tokens;
  last_written_pool_ = raw_sum + tokens;
  borrow_credit_ += tokens;
  stats_.absorbed_tokens += tokens;
  Emit(EventType::kPoolBorrowIn, raw_sum, raw_sum + tokens,
       static_cast<std::int64_t>(peer));
  return tokens;
}

bool MonitorCore::HasFreshReport(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return false;
  const std::uint64_t raw = port_.ReadSlot(entry->slot);
  return IsCurrent(raw) && raw != entry->primed_slot_raw;
}

std::uint32_t MonitorCore::LastResidual(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  HAECHI_EXPECTS(entry != nullptr);
  return ReportResidual(port_.ReadSlot(entry->slot));
}

std::uint32_t MonitorCore::LastCompleted(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  HAECHI_EXPECTS(entry != nullptr);
  return ReportCompleted(port_.ReadSlot(entry->slot));
}

void MonitorCore::StartPeriod() {
  if (!running_) return;
  // The first boundary after a recovery provisions fresh state only: the
  // crashed period never completed, so there is nothing to calibrate, no
  // ledger to close (the crashed entry stays UNCLOSED — no period-end
  // emit), no settled watchdog verdicts for the controller to act on, and
  // slots retired during recovery reconciliation have not yet sat out a
  // full boundary (stale in-flight WRITEs may still land in them).
  const bool recovering = recovered_pending_;
  recovered_pending_ = false;
  if (stats_.periods > 0 && !recovering) Calibrate();
  dead_completed_this_period_ = 0;

  // Provision the next period *before* touching the pool, so the boundary
  // itself is one exchange per shard.
  const std::int64_t next_capacity = estimator_.Estimate();
  std::int64_t total_reserved = 0;
  for (const auto& entry : clients_) total_reserved += entry.reservation;
  const std::int64_t next_initial =
      std::max<std::int64_t>(next_capacity - total_reserved, 0);

  // The boundary: install each shard's share of the new pool and read the
  // old period's final word in one exchange each, so a client FAA lands
  // before or after the boundary but is never silently overwritten. The
  // ledger closes on the shard-summed raw word; per-shard telescoping keeps
  // `granted` exact although the exchanges are not simultaneous.
  std::int64_t raw_sum = 0;
  std::int64_t boundary_granted = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    const std::int64_t share = ShardShare(next_initial, s);
    const std::int64_t raw = port_.Exchange(s, share);
    raw_sum += raw;
    boundary_granted += shard_last_pool_[s] - raw;
    shard_last_pool_[s] = share;
  }
  if (!ledger_.empty() && !recovering) {
    PeriodLedger& prev = ledger_.back();
    prev.granted += boundary_granted;
    prev.end_pool = raw_sum;
    Emit(EventType::kMonitorPeriodEnd, raw_sum,
         stats_.last_period_completions, prev.granted);
  }

  // Closed-loop control boundary: the period-end emit above just ran the
  // recorder tap, so the watchdog's verdicts for the ended period are
  // settled. Resizes are sum-neutral on total_reserved (the victim shrinks
  // before receivers grow), so the pool just installed stays valid, and
  // an eta rescale only moves Estimate() at the next calibration; the T1
  // dispatch below reads the updated reservations.
  if (controller_ != nullptr && stats_.periods > 0 && !recovering) {
    RunControlBoundary();
  }

  // Slots retired last period sat out a full boundary; any stale in-flight
  // WRITE to them has long landed, so they are safe to recycle.
  if (!recovering) {
    free_slots_.insert(free_slots_.end(), retired_slots_.begin(),
                       retired_slots_.end());
    retired_slots_.clear();
  }

  ++stats_.periods;
  period_start_time_ = port_.Now();
  reporting_active_ = false;
  borrow_credit_ = 0;
  period_capacity_ = next_capacity;
  initial_pool_ = next_initial;
  last_written_pool_ = initial_pool_;
  recent_grants_.clear();

  ledger_.push_back({.period = stats_.periods,
                     .capacity = period_capacity_,
                     .dispatched = total_reserved,
                     .initial_pool = initial_pool_,
                     .end_pool = initial_pool_});
  Emit(EventType::kMonitorPeriodStart, period_capacity_, total_reserved,
       initial_pool_);
  // Bound memory on endless runs; tests look at recent periods only.
  if (ledger_.size() > 4096) ledger_.erase(ledger_.begin());

  // Step T1: push fresh reservation tokens; the message is also the
  // period-start signal. Report slots are primed with the full residual so
  // token conversion is conservative until the first real report lands,
  // and the prime re-baselines the lease: every client gets a fresh
  // k-check allowance each period.
  for (auto& entry : clients_) {
    Prime(entry, stats_.periods);
    port_.Send(entry.slot,
               PeriodStartMsg{.period = stats_.periods,
                              .reservation_tokens = entry.reservation,
                              .limit = entry.limit});
  }

  // Forced early conversion (controller kForceConversion): activate
  // reporting at the period start instead of waiting for S2 — with a zero
  // initial pool the word can never be observed to decrease, so S2 alone
  // would leave conversion off and pool-dependent clients starved (W6).
  if (force_reporting_ && !reporting_active_) {
    std::int64_t pool = 0;
    for (std::size_t s = 0; s < shards_; ++s) pool += port_.Load(s);
    ActivateReporting(pool);
  }

  if (config_.checkpoint_every_periods > 0 &&
      stats_.periods % config_.checkpoint_every_periods == 0) {
    CaptureCheckpoint();
  }
}

void MonitorCore::CaptureCheckpoint() {
  checkpoint_.valid = true;
  checkpoint_.epoch = stats_.periods;
  checkpoint_.capacity = period_capacity_;
  checkpoint_.pool_word = initial_pool_;
  checkpoint_.reservation_sum = 0;
  checkpoint_.clients.clear();
  for (const auto& entry : clients_) {
    checkpoint_.clients.push_back(
        {entry.id, entry.reservation, entry.limit, entry.slot});
    checkpoint_.reservation_sum += entry.reservation;
  }
  Emit(EventType::kMonitorCheckpoint,
       static_cast<std::int64_t>(checkpoint_.epoch),
       checkpoint_.reservation_sum, checkpoint_.pool_word);
}

bool MonitorCore::Crash() {
  if (crashed_) return false;
  running_ = false;
  crashed_ = true;
  ++stats_.crashes;
  if (!ledger_.empty()) ledger_.back().crashed = true;
  // The in-memory client table dies with the process; the shared region
  // (pool, report slots, checkpoint) survives. Keep only the wreckage
  // (id + slot) recovery reconciles against. Admission state is
  // conceptually part of the region and is reconciled too.
  wreckage_.clear();
  for (const auto& entry : clients_) {
    wreckage_.emplace_back(entry.id, entry.slot);
  }
  clients_.clear();
  HAECHI_LOG_WARN("monitor %u: control plane crashed in period %u",
                  trace_actor_, stats_.periods);
  Emit(EventType::kMonitorCrash);
  return true;
}

void MonitorCore::Recover() {
  HAECHI_EXPECTS(crashed_);
  crashed_ = false;
  ++stats_.recoveries;

  // Reconcile the checkpoint against the wreckage: a client admitted after
  // the last checkpoint is unknown to the restarted monitor — its admission
  // is released and its slot retired (it re-admits through the normal
  // handshake). A checkpointed client that departed before the crash is not
  // in the wreckage and must not be resurrected.
  std::uint32_t reconciled = 0;
  for (const auto& [id, slot] : wreckage_) {
    if (checkpoint_.valid &&
        std::ranges::find(checkpoint_.clients, id, &Checkpoint::Client::id) !=
            checkpoint_.clients.end()) {
      continue;
    }
    const Status released = admission_.Release(id);
    HAECHI_ASSERT(released.ok());
    retired_slots_.push_back(slot);
  }
  if (checkpoint_.valid) {
    for (const auto& c : checkpoint_.clients) {
      const bool live = std::ranges::any_of(
          wreckage_, [&](const auto& w) { return w.first == c.id; });
      if (!live) continue;
      ClientEntry entry{.id = c.id,
                        .reservation = c.reservation,
                        .limit = c.limit,
                        .slot = c.slot};
      // Live-slot reconciliation: adopt whatever the client wrote while
      // the monitor was down as the lease baseline, and count slots whose
      // period tag proves a report landed since the checkpoint.
      entry.last_slot_raw = port_.ReadSlot(c.slot);
      entry.primed_slot_raw = entry.last_slot_raw;
      if (ReportPeriod(entry.last_slot_raw) ==
          (checkpoint_.epoch & kReportPeriodMask)) {
        ++reconciled;
      }
      clients_.push_back(entry);
      // Realign admission with the restored reservation (a resize may have
      // happened between the checkpoint and the crash).
      const Status synced = admission_.Update(c.id, c.reservation);
      HAECHI_ASSERT(synced.ok());
    }
  }
  wreckage_.clear();
  HAECHI_LOG_WARN(
      "monitor %u: recovered from checkpoint epoch %u (%zu clients, %lld "
      "reserved)",
      trace_actor_, checkpoint_.epoch, clients_.size(),
      static_cast<long long>(checkpoint_.reservation_sum));
  Emit(EventType::kMonitorRecover,
       static_cast<std::int64_t>(checkpoint_.valid ? checkpoint_.epoch : 0),
       checkpoint_.valid ? checkpoint_.reservation_sum : 0,
       static_cast<std::int64_t>(reconciled));

  // Recovery handshake: every restored client proves liveness with an
  // immediate report write before boundary sweeps resume.
  for (const auto& entry : clients_) {
    port_.Send(entry.slot, RecoverySyncMsg{.period = checkpoint_.epoch});
  }

  recovered_pending_ = true;
  StartPeriod();
}

void MonitorCore::ActivateReporting(std::int64_t observed_pool) {
  reporting_active_ = true;
  ++stats_.report_signals;
  Emit(EventType::kReportSignal, observed_pool, initial_pool_);
  for (const auto& entry : clients_) {
    port_.Send(entry.slot, ReportRequestMsg{.period = stats_.periods});
  }
}

void MonitorCore::RunControlBoundary() {
  // The view: reservations as configured, completions as reported for the
  // period that just ended (slots still hold the final reports here — they
  // are re-primed only when the next period is dispatched).
  std::vector<control::QosController::ClientView> view;
  view.reserve(clients_.size());
  for (const auto& entry : clients_) {
    std::int64_t completed = 0;
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (IsCurrent(slot)) {
      completed = static_cast<std::int64_t>(ReportCompleted(slot));
    }
    // The admissible region caps the planning limit: a receiver can never
    // be grown past the per-client local capacity, so every planned resize
    // passes admission_.Update and the emitted deltas stay sum-neutral.
    const std::int64_t local = admission_.LocalCapacity();
    const std::int64_t plan_limit =
        entry.limit > 0 ? std::min(entry.limit, local) : local;
    view.push_back({Raw(entry.id), entry.reservation, plan_limit, completed});
  }
  std::ranges::sort(view, {}, &control::QosController::ClientView::client);

  const control::QosController::Boundary plan =
      controller_->PlanBoundary(stats_.periods, view);
  for (const auto& r : plan.recovered) {
    port_.Emit(ActorKind::kController, trace_actor_,
               EventType::kControlRecovered, stats_.periods,
               static_cast<std::int64_t>(r.rule), r.client,
               static_cast<std::int64_t>(r.periods));
  }
  for (const auto& action : plan.actions) {
    bool applied = false;
    std::int64_t payload = action.value;
    switch (action.kind) {
      case control::ActionKind::kResize: {
        const Status s = UpdateReservation(
            MakeClientId(static_cast<std::uint32_t>(action.client)),
            action.value);
        if (!s.ok()) {
          HAECHI_LOG_WARN("controller: resize of client %lld failed: %s",
                          static_cast<long long>(action.client),
                          s.ToString().c_str());
        }
        applied = s.ok();
        payload = action.delta;
        break;
      }
      case control::ActionKind::kScaleEta:
        estimator_.SetEtaScaleMilli(action.value);
        applied = true;
        break;
      case control::ActionKind::kForceConversion:
        force_reporting_ = true;
        applied = true;
        break;
      case control::ActionKind::kReadmit:
        if (readmit_cb_) {
          readmit_cb_(MakeClientId(static_cast<std::uint32_t>(action.client)));
          applied = true;
        }
        break;
    }
    if (applied) {
      port_.Emit(ActorKind::kController, trace_actor_,
                 EventType::kControlAction, stats_.periods,
                 static_cast<std::int64_t>(action.kind), action.client,
                 payload);
    }
  }
}

void MonitorCore::CheckTick() {
  if (!running_ || stats_.periods == 0) return;
  ++stats_.checks;

  // Ledger grant sampling witnesses every shard directly, so it is exact
  // whatever path the QoS observation below takes.
  std::int64_t raw_sum = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    const std::int64_t raw = port_.Load(s);
    raw_sum += raw;
    Witness(s, raw, raw);
    // Per-shard occupancy telemetry for a sharded pool (the watchdog's
    // status line and the span profiler's shard view). One shard emits
    // none, so single-word runs match across runtimes.
    if (shards_ > 1) {
      Emit(EventType::kShardSample, static_cast<std::int64_t>(s), raw);
      ++runtime_stats_.shard_samples;
    }
  }
  Emit(EventType::kPoolSample, raw_sum);

  // With the shard values freshly witnessed, even out lopsided shards so a
  // client whose home shard ran dry is not starved while a neighbour
  // hoards (AdapTBF-style periodic redistribution).
  if (shards_ > 1) Rebalance();

  const std::int64_t observed_now = port_.ObservePool(raw_sum);
  // Tokens granted since the last check: the word only moves down between
  // monitor writes, and a draw against an empty pool grants nothing.
  const std::int64_t grants =
      std::max<std::int64_t>(last_written_pool_, 0) -
      std::max<std::int64_t>(observed_now, 0);
  recent_grants_.push_back(std::max<std::int64_t>(grants, 0));
  // Lag window: a report in flight can be ~report_interval + transit old;
  // keep enough intervals to cover it (+1 for safety).
  const std::size_t lag_checks =
      static_cast<std::size_t>(config_.report_interval /
                               std::max<SimDuration>(config_.check_interval,
                                                     1)) +
      2;
  while (recent_grants_.size() > lag_checks) recent_grants_.pop_front();
  last_written_pool_ = observed_now;

  // Step S2: reservation-token overflow — someone is drawing on the pool.
  if (!reporting_active_ && observed_now < initial_pool_) {
    ActivateReporting(observed_now);
  }

  // Report lease: only meaningful once clients were asked to report.
  if (reporting_active_ && config_.report_lease_intervals > 0) CheckLeases();

  // Step T2: token conversion.
  if (reporting_active_ && config_.token_conversion) ConvertTokens();
}

void MonitorCore::CheckLeases() {
  // Two-phase: collect expirations first, then declare — DeclareDead
  // erases from clients_ and must not run under this iteration.
  std::vector<ClientId> dead;
  for (ClientEntry& entry : clients_) {
    const std::uint64_t raw = port_.ReadSlot(entry.slot);
    if (raw != entry.last_slot_raw) {
      entry.last_slot_raw = raw;
      entry.lease_misses = 0;
      continue;
    }
    ++entry.lease_misses;
    if (entry.lease_misses ==
        std::max<std::uint32_t>(config_.report_lease_intervals / 2, 1)) {
      // Half-lease nudge: the ReportRequest SEND itself may have been
      // lost; a live client answers this within one report interval.
      ++stats_.report_request_resends;
      Emit(EventType::kReportResend, static_cast<std::int64_t>(Raw(entry.id)));
      port_.Send(entry.slot, ReportRequestMsg{.period = stats_.periods});
    }
    if (entry.lease_misses >= config_.report_lease_intervals) {
      dead.push_back(entry.id);
    }
  }
  for (const ClientId id : dead) DeclareDead(id);
}

void MonitorCore::DeclareDead(ClientId client) {
  const auto it = std::ranges::find(clients_, client, &ClientEntry::id);
  if (it == clients_.end()) return;
  // Unreported residual: the client's own last word if it reported this
  // period, else the full reservation it was dispatched.
  const std::uint64_t slot = port_.ReadSlot(it->slot);
  std::int64_t residual;
  std::int64_t salvaged = 0;
  if (IsCurrent(slot)) {
    residual = static_cast<std::int64_t>(ReportResidual(slot));
    salvaged = static_cast<std::int64_t>(ReportCompleted(slot));
    dead_completed_this_period_ += salvaged;
  } else {
    residual = std::max<std::int64_t>(it->reservation, 0);
  }
  HAECHI_LOG_WARN(
      "monitor: client %u report lease expired after %u checks; reclaiming "
      "%lld residual tokens",
      Raw(client), it->lease_misses, static_cast<long long>(residual));
  ++stats_.lease_expirations;
  Emit(EventType::kLeaseExpire, static_cast<std::int64_t>(Raw(client)),
       residual, salvaged);
  stats_.reclaimed_tokens += residual;
  if (!ledger_.empty()) ledger_.back().reclaimed += residual;
  retired_slots_.push_back(it->slot);
  clients_.erase(it);
  const Status released = admission_.Release(client);
  HAECHI_ASSERT(released.ok());
  // Work conservation: realise the reclaimed residual in the pool now —
  // the dead client no longer contributes to L, so conversion re-mints
  // its surrendered claims for everyone else.
  if (config_.token_conversion && reporting_active_) ConvertTokens();
  if (client_dead_cb_) client_dead_cb_(client);
}

void MonitorCore::ConvertTokens() {
  std::int64_t outstanding_reservation = 0;  // the paper's L
  // Dead clients' salvaged completions still count against this period's
  // completion budget.
  std::int64_t completed_so_far = dead_completed_this_period_;
  for (const auto& entry : clients_) {
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (IsCurrent(slot)) {
      outstanding_reservation += ReportResidual(slot);
      completed_so_far += ReportCompleted(slot);
    } else {
      // Stale (in-flight across the boundary) or missing report: assume
      // the full reservation is still outstanding — conservative, like the
      // slot prime it replaced.
      outstanding_reservation += entry.reservation;
    }
  }
  const SimDuration elapsed = port_.Now() - period_start_time_;
  const SimDuration left =
      std::max<SimDuration>(config_.period - elapsed, 0);
  // Remaining capacity is the smaller of the paper's time-based budget
  // C*(T-t)/T and the completion-based budget C - U(t). The time budget
  // throttles the pool when the node under-delivers (over-estimated
  // capacity, Fig 16); the completion budget makes conversion strictly
  // token-conserving — it can recycle surrendered reservations but never
  // mint tokens beyond the period's capacity estimate, which preserves the
  // exact U == Omega underestimation signal Algorithm 1's recovery rests
  // on (Fig 18). (128-bit intermediate: tokens * ns overflows 64 bits.)
  const auto time_budget = static_cast<std::int64_t>(
      static_cast<__int128>(period_capacity_) * left / config_.period);
  const std::int64_t completion_budget =
      period_capacity_ - completed_so_far;
  const std::int64_t remaining_capacity =
      std::min(time_budget, completion_budget);
  // Grants from the last few checks are invisible in the (lagged) reports;
  // without this correction the conversion would re-mint them every check.
  std::int64_t unreported_grants = 0;
  for (const std::int64_t g : recent_grants_) unreported_grants += g;
  // borrow_credit_ (absorbed - lent this period) shifts the target so a
  // conversion pass neither clobbers tokens a peer transferred in nor
  // re-mints tokens this node lent out.
  const std::int64_t new_pool = std::max<std::int64_t>(
      remaining_capacity - outstanding_reservation - unreported_grants +
          borrow_credit_,
      0);

  // Install each shard's share with a CAS loop: every failure means client
  // FAAs moved that word; retry from the freshly witnessed value so the
  // final successful CAS gives the exact pre-conversion word and no grant
  // is ever lost to an overwrite. Movement since the last witness is
  // grants; the overwrite itself is minting (negative when conversion
  // shrinks the pool as the period drains).
  std::int64_t raw_before = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    const std::int64_t share = ShardShare(new_pool, s);
    std::int64_t expected = port_.Load(s);
    while (!port_.Cas(s, expected, share)) {
      ++runtime_stats_.convert_cas_retries;
    }
    raw_before += expected;
    Witness(s, expected, share);
  }
  ledger_.back().minted += new_pool - raw_before;
  Emit(EventType::kTokenConvert, raw_before, new_pool,
       outstanding_reservation);
  last_written_pool_ = new_pool;
  ++stats_.conversions;
}

void MonitorCore::Rebalance() {
  // Move half the spread from the fullest shard to the emptiest one, one
  // move per check tick, when the spread exceeds two effective fetch
  // batches — cheap, incremental, and a no-op in steady state. The donor
  // side is a CAS (witnessing the live word so concurrent grants stay
  // ledger-exact, clamping the move to what is actually there); the
  // receiver side is an add whose return value witnesses that word. The
  // move itself is sum-neutral: only the witnessed client grants change
  // `granted`, and `minted` is untouched.
  std::size_t donor = 0;
  std::size_t receiver = 0;
  for (std::size_t s = 1; s < shards_; ++s) {
    if (shard_last_pool_[s] > shard_last_pool_[donor]) donor = s;
    if (shard_last_pool_[s] < shard_last_pool_[receiver]) receiver = s;
  }
  const std::int64_t batch =
      config_.token_batch * std::max<std::int64_t>(config_.fetch_batch, 1);
  const std::int64_t spread =
      shard_last_pool_[donor] - shard_last_pool_[receiver];
  if (donor == receiver || spread <= 2 * batch) return;

  std::int64_t move = spread / 2;
  std::int64_t expected = port_.Load(donor);
  for (;;) {
    move = std::min(move, std::max<std::int64_t>(expected, 0));
    if (move <= 0) {
      // Clients drained the donor under us; fold the witnessed grants in
      // and try again next tick.
      Witness(donor, expected, expected);
      return;
    }
    if (port_.Cas(donor, expected, expected - move)) break;
  }
  Witness(donor, expected, expected - move);
  const std::int64_t receiver_before = port_.Add(receiver, move);
  Witness(receiver, receiver_before, receiver_before + move);
  ++stats_.rebalances;
  stats_.rebalanced_tokens += move;
  std::int64_t tracked_sum = 0;
  for (const std::int64_t v : shard_last_pool_) tracked_sum += v;
  Emit(EventType::kPoolRebalance, tracked_sum, move,
       static_cast<std::int64_t>((donor << 8) | receiver));
}

void MonitorCore::Calibrate() {
  // Step T3: feed Algorithm 1 with the reported completion total. Without
  // any reports this period (pool untouched), there is no signal — skip.
  // Clients that died mid-period still did their reported work; start the
  // total from their salvaged counts so Algorithm 1 does not read a crash
  // as a capacity drop.
  std::int64_t total_completed = dead_completed_this_period_;
  for (const auto& entry : clients_) {
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (!IsCurrent(slot)) continue;
    const auto completed = static_cast<std::int64_t>(ReportCompleted(slot));
    total_completed += completed;
    Emit(EventType::kClientPeriodReport,
         static_cast<std::int64_t>(Raw(entry.id)), completed,
         static_cast<std::int64_t>(ReportResidual(slot)));
    if (client_report_hook_) {
      client_report_hook_(stats_.periods, entry.id, completed);
    }
  }
  stats_.last_period_completions = total_completed;
  if (reporting_active_) {
    estimator_.OnPeriodEnd(total_completed);
    Emit(EventType::kCapacityEstimate, total_completed, estimator_.Estimate(),
         static_cast<std::int64_t>(estimator_.LastDecision()));

    for (auto& entry : clients_) {
      const std::uint64_t slot = port_.ReadSlot(entry.slot);
      if (!IsCurrent(slot)) continue;
      const auto completed = static_cast<std::int64_t>(ReportCompleted(slot));
      if (completed < entry.reservation) {
        ++entry.underuse_streak;
        if (entry.underuse_streak >= config_.underuse_alert_periods) {
          ++stats_.over_reserve_hints;
          if (over_reserve_cb_) over_reserve_cb_(entry.id);
          port_.Send(entry.slot, OverReserveHintMsg{.consecutive_periods =
                                                        entry.underuse_streak});
          entry.underuse_streak = 0;
        }
      } else {
        entry.underuse_streak = 0;
      }
    }
  }
  if (period_hook_) {
    period_hook_(stats_.periods, total_completed, estimator_.Estimate());
  }
}

const MonitorCore::ClientEntry* MonitorCore::FindClient(
    ClientId client) const {
  const auto it = std::ranges::find(clients_, client, &ClientEntry::id);
  return it == clients_.end() ? nullptr : &*it;
}

}  // namespace haechi::core
