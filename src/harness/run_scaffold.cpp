#include "harness/run_scaffold.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/logging.hpp"
#include "obs/export.hpp"
#include "runtime/clock.hpp"
#include "runtime/shared_region.hpp"

namespace haechi::harness {

using obs::ActorKind;
using obs::EventType;

namespace {
void WarnIfFailed(const char* name, const char* what, const Status& status) {
  if (!status.ok()) {
    HAECHI_LOG_WARN("%s: %s failed: %s", name, what, status.ToString().c_str());
  }
}
}  // namespace

RunScaffold::RunScaffold(const char* name, const TraceConfig& trace,
                         const WatchdogConfig& watchdog, ControlConfig& control)
    : name_(name),
      trace_(trace),
      watchdog_config_(watchdog),
      control_(control) {}

bool RunScaffold::WantsWatchdog() const {
#if HAECHI_WATCHDOG_ENABLED
  return watchdog_config_.enabled || !watchdog_config_.alerts_out.empty() ||
         watchdog_config_.status_interval > 0 || control_.armed();
#else
  return false;
#endif
}

void RunScaffold::Begin(sim::Simulator& sim, const core::QosConfig& qos,
                        std::size_t measure_periods) {
  sim_ = &sim;
  if (trace_.enabled || !trace_.out_path.empty() || WantsWatchdog()) {
    recorder_ = std::make_unique<obs::Recorder>(
        sim, obs::Recorder::Options{.ring_capacity = trace_.ring_capacity,
                                    .detail = trace_.detail});
  }
  Arm(qos, measure_periods);
}

void RunScaffold::Begin(const runtime::Clock& clock, std::mutex& tap_mu,
                        const core::QosConfig& qos,
                        std::size_t measure_periods) {
  clock_ = &clock;
  tap_mu_ = &tap_mu;
  if (trace_.enabled || !trace_.out_path.empty() || WantsWatchdog()) {
    // Every client's rings exist up front: Emit never resizes a per-kind
    // ring vector while other threads append to sibling rings.
    recorder_ = std::make_unique<obs::Recorder>(
        obs::Recorder::ClockFn([&clock] { return clock.Now(); }),
        obs::Recorder::Options{
            .ring_capacity = trace_.ring_capacity,
            .detail = trace_.detail,
            .preallocate_actors = runtime::SharedRegion::kMaxClients});
  }
  Arm(qos, measure_periods);
}

void RunScaffold::Arm(const core::QosConfig& qos,
                      std::size_t measure_periods) {
  period_ = qos.period;
  measure_periods_ = measure_periods;
  if (recorder_ == nullptr) return;
#if HAECHI_WATCHDOG_ENABLED
  if (WantsWatchdog()) {
    obs::WatchdogOptions options;
    options.guarantee_fraction = watchdog_config_.guarantee_fraction;
    watchdog_ = std::make_unique<obs::SloWatchdog>(options);
    // The JSONL sink always exists when armed (empty path = buffer only),
    // so tests can compare the byte-exact alert document without a file.
    alerts_sink_ =
        std::make_unique<obs::JsonlAlertSink>(watchdog_config_.alerts_out);
    watchdog_->AddSink(alerts_sink_.get());
    if (watchdog_config_.status_interval > 0) {
      auto status_fn = watchdog_config_.status_fn;
      if (!status_fn) {
        status_fn = [](const obs::PeriodStatus& status) {
          std::fprintf(stderr, "%s\n", obs::FormatStatusLine(status).c_str());
        };
      }
      watchdog_->SetStatusFn(std::move(status_fn),
                             watchdog_config_.status_interval);
    }
    if (control_.armed()) {
      // The controller's OnAlert fires only while the watchdog processes
      // monitor events, and PlanBoundary runs at the monitor's boundary, so
      // on either runtime its state is monitor-local.
      controller_ = std::make_unique<core::control::QosController>(
          control_.ToControllerConfig());
      watchdog_->AddSink(controller_.get());
      std::stable_sort(
          control_.api.begin(), control_.api.end(),
          [](const auto& x, const auto& y) { return x.first < y.first; });
    }
    // Installed before kRunConfig below: the watchdog's view must start
    // there or its period-length inference runs blind.
    if (tap_mu_ == nullptr) {
      recorder_->SetTap(
          [this](const obs::TraceEvent& event) { watchdog_->OnEvent(event); });
    } else {
      recorder_->SetTap([this](const obs::TraceEvent& event) {
        std::lock_guard lk(*tap_mu_);
        watchdog_->OnEvent(event);
      });
    }
  }
#endif
  // Ring truncation is never silent: the first overwrite raises a one-shot
  // watchdog alert (when armed) or at least a log line; Finish harvests the
  // cumulative trace.dropped_events either way.
  recorder_->SetDropNotify([this] {
#if HAECHI_WATCHDOG_ENABLED
    if (watchdog_ != nullptr) {
      std::unique_lock<std::mutex> lk;
      if (tap_mu_ != nullptr) lk = std::unique_lock(*tap_mu_);
      watchdog_->NotifyTruncation(sim_ != nullptr ? sim_->Now()
                                                  : clock_->Now());
      return;
    }
#endif
    HAECHI_LOG_WARN("%s: trace ring wrapped; any export of this run is "
                    "truncated",
                    name_);
  });
  Emit(EventType::kRunConfig, 0, qos.period, qos.token_batch,
       static_cast<std::int64_t>(measure_periods));
}

void RunScaffold::AddClient(std::size_t index, std::int64_t reservation,
                            std::int64_t limit, std::int64_t demand) {
  const auto client = static_cast<std::uint32_t>(index);
  Emit(EventType::kClientSpec, client, reservation, limit, demand);
  if (controller_ == nullptr) return;
  controller_->SetClientSpec(client, reservation, limit, demand);
  const auto cls = control_.classes.find(index);
  if (cls != control_.classes.end()) {
    controller_->SetClientClass(client, cls->second);
  }
}

void RunScaffold::EmitControllerConfig(std::uint32_t period,
                                       core::control::Policy policy) {
  if (recorder_ == nullptr) return;
  const core::control::ControllerConfig& config = controller_->config();
  recorder_->Emit(ActorKind::kHarness, 0, EventType::kControllerConfig, period,
                  static_cast<std::int64_t>(policy),
                  static_cast<std::int64_t>(config.rules),
                  static_cast<std::int64_t>(config.quiet_periods));
}

void RunScaffold::EndHeader() {
  if (controller_ != nullptr) EmitControllerConfig(0, controller_->policy());
}

void RunScaffold::OnBoundary(std::uint32_t period) {
  while (control_api_next_ < control_.api.size() &&
         control_.api[control_api_next_].first <= period) {
    const auto swap = control_.api[control_api_next_++];
    if (controller_ != nullptr) {
      controller_->SetPolicy(swap.second);
      EmitControllerConfig(period, swap.second);
    }
  }
}

void RunScaffold::Emit(EventType type, std::uint32_t actor, std::int64_t a,
                       std::int64_t b, std::int64_t c) {
  if (recorder_ != nullptr) {
    recorder_->Emit(ActorKind::kHarness, actor, type, 0, a, b, c);
  }
}

void RunScaffold::EmitAt(SimTime time, EventType type, std::uint32_t actor) {
  if (recorder_ != nullptr) {
    recorder_->EmitAt(time, ActorKind::kHarness, actor, type, 0);
  }
}

void RunScaffold::RunMeasured(SimDuration warmup,
                              std::span<stats::PeriodSeries> series) {
  series_ = series;
  sim_->ScheduleAt(warmup, [this] {
    measuring_ = true;
    Emit(EventType::kMeasureStart);
    for (stats::PeriodSeries& s : series_) s.BeginPeriod();
    measured_periods_ = 1;
    measure_timer_ =
        std::make_unique<sim::PeriodicTimer>(*sim_, period_, [this] {
          if (measured_periods_ >= measure_periods_) {
            measuring_ = false;
            measure_timer_->Stop();
            return;
          }
          for (stats::PeriodSeries& s : series_) s.BeginPeriod();
          ++measured_periods_;
        });
    measure_timer_->Start();
  });
  sim_->RunUntil(warmup + static_cast<SimTime>(measure_periods_) * period_);
  Emit(EventType::kMeasureEnd);
}

const std::string& RunScaffold::alerts_jsonl() const {
  static const std::string kEmpty;
  return alerts_sink_ != nullptr ? alerts_sink_->buffer() : kEmpty;
}

void RunScaffold::Finish() {
  if (recorder_ != nullptr) {
    metrics_.Add("trace.emitted_events",
                 static_cast<std::int64_t>(recorder_->TotalEmitted()));
    metrics_.Add("trace.dropped_events",
                 static_cast<std::int64_t>(recorder_->TotalDropped()));
    if (!trace_.out_path.empty()) {
      WarnIfFailed(name_, "trace export",
                   obs::ExportTraceFile(*recorder_, trace_.out_path));
    }
  }
#if HAECHI_WATCHDOG_ENABLED
  if (watchdog_ != nullptr) {
    WarnIfFailed(name_, "alert sink flush", watchdog_->Finish());
    metrics_.Add("watchdog.alerts",
                 static_cast<std::int64_t>(watchdog_->alerts().size()));
    metrics_.Add("watchdog.critical",
                 static_cast<std::int64_t>(
                     watchdog_->CountAtLeast(obs::AlertSeverity::kCritical)));
    metrics_.Add("watchdog.periods_evaluated",
                 static_cast<std::int64_t>(watchdog_->periods_evaluated()));
  }
  if (controller_ != nullptr) {
    const auto& cs = controller_->stats();
    for (const auto& [name, value] :
         {std::pair{"controller.alerts", cs.alerts},
          {"controller.resizes", cs.resizes},
          {"controller.eta_scalings", cs.eta_scalings},
          {"controller.forced_conversions", cs.forced_conversions},
          {"controller.readmits", cs.readmits},
          {"controller.recoveries", cs.recoveries}}) {
      metrics_.Add(name, static_cast<std::int64_t>(value));
    }
  }
#endif
  if (!trace_.metrics_out.empty()) {
    WarnIfFailed(name_, "metrics export",
                 metrics_.ToCsv().WriteFile(trace_.metrics_out));
  }
  if (!trace_.prom_out.empty()) {
    std::ofstream prom(trace_.prom_out, std::ios::binary);
    prom << metrics_.ToPrometheus();
    prom.close();
    if (!prom) {
      HAECHI_LOG_WARN("%s: prom export failed: %s", name_,
                      trace_.prom_out.c_str());
    }
  }
}

}  // namespace haechi::harness
