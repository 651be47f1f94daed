#include "runtime/threaded_monitor.hpp"

#include <variant>

#include "common/assert.hpp"

namespace haechi::runtime {

ThreadedMonitor::ThreadedMonitor(Clock& clock, obs::Recorder* recorder,
                                 const core::QosConfig& config,
                                 ThreadedFabric& fabric,
                                 double profiled_global_iops,
                                 double profiled_local_iops)
    : clock_(clock),
      recorder_(recorder),
      fabric_(fabric),
      core_(*this, config, profiled_global_iops, profiled_local_iops,
            fabric.shards()) {
  period_timer_ =
      std::make_unique<PeriodicTimer>(clock_, config.period, [this] {
        auto lk = Enter();
        core_.StartPeriod();
      });
  check_timer_ =
      std::make_unique<PeriodicTimer>(clock_, config.check_interval, [this] {
        auto lk = Enter();
        core_.CheckTick();
      });
}

ThreadedMonitor::~ThreadedMonitor() { Stop(); }

std::unique_lock<std::mutex> ThreadedMonitor::Enter() {
  std::unique_lock lk(mu_);
  now_ = clock_.Now();
  return lk;
}

void ThreadedMonitor::Send(std::size_t slot, const core::MonitorMessage& msg) {
  ThreadedEngine* engine = engines_[slot];
  if (engine == nullptr) return;
  if (const auto* start = std::get_if<core::PeriodStartMsg>(&msg)) {
    engine->DeliverPeriodStart(*start);
  } else if (std::holds_alternative<core::ReportRequestMsg>(msg)) {
    engine->DeliverReportRequest();
  } else if (std::holds_alternative<core::OverReserveHintMsg>(msg)) {
    engine->DeliverOverReserveHint();
  } else {
    engine->DeliverRecoverySync();
  }
}

void ThreadedMonitor::Emit(obs::ActorKind kind, std::uint32_t actor,
                           obs::EventType type, std::uint32_t period,
                           std::int64_t a, std::int64_t b, std::int64_t c) {
  if (recorder_ != nullptr) {
    recorder_->EmitAt(now_, kind, actor, type, period, a, b, c);
  }
}

Result<ThreadedWiring> ThreadedMonitor::AdmitClient(ClientId client,
                                                    std::int64_t reservation,
                                                    std::int64_t limit) {
  auto lk = Enter();
  const Result<std::size_t> slot =
      core_.AdmitClient(client, reservation, limit);
  if (!slot.ok()) return slot.status();
  // A recycled slot must not reach its previous occupant's engine.
  engines_[slot.value()] = nullptr;
  return ThreadedWiring{slot.value()};
}

Status ThreadedMonitor::BindEngine(ClientId client, ThreadedEngine* engine) {
  auto lk = Enter();
  const Result<std::size_t> slot = core_.SlotOf(client);
  if (!slot.ok()) return slot.status();
  engines_[slot.value()] = engine;
  core_.OnChannelBound(client);
  return Status::Ok();
}

Status ThreadedMonitor::ReleaseClient(ClientId client) {
  auto lk = Enter();
  return core_.ReleaseClient(client);
}

Status ThreadedMonitor::UpdateReservation(ClientId client,
                                          std::int64_t reservation) {
  auto lk = Enter();
  return core_.UpdateReservation(client, reservation);
}

void ThreadedMonitor::SetController(core::control::QosController* controller,
                                    std::function<void(ClientId)> readmit) {
  auto lk = Enter();
  core_.SetController(controller, std::move(readmit));
}

void ThreadedMonitor::Start() {
  {
    auto lk = Enter();
    HAECHI_EXPECTS(!core_.running());
    core_.SetRunning(true);
    core_.StartPeriod();
  }
  period_timer_->Start();
  check_timer_->Start();
}

void ThreadedMonitor::Stop() {
  {
    auto lk = Enter();
    core_.SetRunning(false);
  }
  period_timer_->Stop();
  check_timer_->Stop();
}

void ThreadedMonitor::Crash() {
  {
    auto lk = Enter();
    if (!core_.running() || !core_.Crash()) return;
  }
  // Disarm outside the lock, matching Stop(); an already-launched tick
  // re-checks running() under the lock and becomes a no-op.
  period_timer_->Stop();
  check_timer_->Stop();
}

void ThreadedMonitor::Recover() {
  {
    auto lk = Enter();
    HAECHI_EXPECTS(core_.Crashed());
    core_.SetRunning(true);
    core_.Recover();
  }
  period_timer_->Start();
  check_timer_->Start();
}

}  // namespace haechi::runtime
