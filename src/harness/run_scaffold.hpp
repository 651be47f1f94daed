// The run lifecycle shared by the three experiment harnesses (Experiment,
// ClusterExperiment, ThreadedExperiment): the flight recorder, the SLO
// watchdog and its JSONL sink, the closed-loop controller, the scripted
// control-api cursor and the metrics registry, armed, fed and exported the
// same way for all three. Each harness keeps only what is its own: the
// clock, the fabric, the topology and the runtime rollups.
//
// Harness events go straight to the recorder, not through
// HAECHI_TRACE_EVENT, so they are recorded whenever a recorder exists —
// also when tracing is compiled out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/control/controller.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stats/period_series.hpp"

namespace haechi::runtime {
class Clock;
}  // namespace haechi::runtime

namespace haechi::harness {

// The scaffold's knobs. ExperimentConfig and ClusterExperimentConfig carry
// them as `trace`, `watchdog` and `control`; their semantics are
// documented at those members in experiment.hpp.
struct TraceConfig {
  bool enabled = false;
  bool detail = false;  // also record per-I/O kRdma*/kKv* events
  std::size_t ring_capacity = 1u << 16;
  std::string out_path;
  std::string metrics_out;
  std::string prom_out;
};

struct WatchdogConfig {
  bool enabled = false;
  double guarantee_fraction = 0.95;
  std::string alerts_out;
  std::uint32_t status_interval = 0;
  std::function<void(const obs::PeriodStatus&)> status_fn;
};

struct ControlConfig {
  core::control::Policy policy = core::control::Policy::kOff;
  std::uint32_t rules = core::control::kAllRules;
  std::uint32_t quiet_periods = 1;
  std::uint32_t oscillation_quiet = 6;
  std::uint32_t eta_recover_after = 16;
  std::int64_t min_reservation = 0;
  /// Service classes by client index; missing = permissive default.
  std::map<std::size_t, core::control::ClientClass> classes;
  /// Scripted runtime policy swaps (the --control-api surface): applied
  /// at the first boundary whose period counter is >= `first`.
  std::vector<std::pair<std::uint32_t, core::control::Policy>> api;

  [[nodiscard]] bool armed() const {
    return policy != core::control::Policy::kOff || !api.empty();
  }
  [[nodiscard]] core::control::ControllerConfig ToControllerConfig() const {
    return {.policy = policy, .rules = rules, .quiet_periods = quiet_periods,
            .oscillation_quiet = oscillation_quiet,
            .eta_recover_after = eta_recover_after,
            .min_reservation = min_reservation};
  }
};

class RunScaffold {
 public:
  /// `name` prefixes the scaffold's log lines. The configs must outlive the
  /// scaffold; an armed controller sorts `control.api` in place.
  RunScaffold(const char* name, const TraceConfig& trace,
              const WatchdogConfig& watchdog, ControlConfig& control);
  // The recorder's tap, its drop notify and the simulator's measurement
  // events hold `this`.
  RunScaffold(const RunScaffold&) = delete;
  RunScaffold& operator=(const RunScaffold&) = delete;

  /// Arming: trace.enabled, a nonempty trace.out_path or an armed watchdog
  /// forces a recorder; an armed controller forces the watchdog. A ring
  /// wrap raises a watchdog alert, or a log line without one.
  ///
  /// Arms on the simulator's clock and writes kRunConfig. The simulator is
  /// single-threaded, so the watchdog tap takes no lock.
  void Begin(sim::Simulator& sim, const core::QosConfig& qos,
             std::size_t measure_periods);
  /// Arms on the wall clock and writes kRunConfig. `tap_mu` serialises the
  /// watchdog tap and the drop notify: the threaded runtime emits from many
  /// threads, and the watchdog is single-threaded by contract.
  void Begin(const runtime::Clock& clock, std::mutex& tap_mu,
             const core::QosConfig& qos, std::size_t measure_periods);

  /// One client's kClientSpec header event and controller registration.
  void AddClient(std::size_t index, std::int64_t reservation,
                 std::int64_t limit, std::int64_t demand);
  /// Closes the header: kControllerConfig when a controller is armed.
  void EndHeader();

  /// First step of every period-boundary hook: applies the scripted
  /// control-api swaps due at `period`, so the same boundary's
  /// PlanBoundary already sees the new policy.
  void OnBoundary(std::uint32_t period);

  /// Records one harness event at the run clock's now (or at `time`).
  void Emit(obs::EventType type, std::uint32_t actor = 0, std::int64_t a = 0,
            std::int64_t b = 0, std::int64_t c = 0);
  void EmitAt(SimTime time, obs::EventType type, std::uint32_t actor = 0);

  /// Simulator runs only: opens the measurement window at `warmup`
  /// (kMeasureStart), begins one row of every `series` per measured
  /// period, runs the simulator to the window's end and writes kMeasureEnd.
  void RunMeasured(SimDuration warmup, std::span<stats::PeriodSeries> series);
  /// True inside the simulated measurement window (read once per I/O).
  [[nodiscard]] bool measuring() const { return measuring_; }

  /// The trace.*, watchdog.* and controller.* rollups, then the trace,
  /// metrics-CSV and Prometheus exports; call once every emitter is quiet.
  void Finish();

  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  [[nodiscard]] core::control::QosController* controller() {
    return controller_.get();
  }
  [[nodiscard]] const std::string& alerts_jsonl() const;

 private:
  [[nodiscard]] bool WantsWatchdog() const;
  /// Everything after the recorder exists: watchdog, sink, controller,
  /// tap, drop notify, then kRunConfig.
  void Arm(const core::QosConfig& qos, std::size_t measure_periods);
  void EmitControllerConfig(std::uint32_t period, core::control::Policy policy);

  const char* name_;
  const TraceConfig& trace_;
  const WatchdogConfig& watchdog_config_;
  ControlConfig& control_;
  sim::Simulator* sim_ = nullptr;            // the simulator's clock, or
  const runtime::Clock* clock_ = nullptr;    // the threaded runtime's
  std::mutex* tap_mu_ = nullptr;             // null on the simulator
  std::unique_ptr<obs::Recorder> recorder_;
  // Null unless armed (never armed when HAECHI_WATCHDOG=OFF).
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  std::unique_ptr<obs::JsonlAlertSink> alerts_sink_;
  std::unique_ptr<core::control::QosController> controller_;
  /// Scripted policy swaps not yet applied.
  std::size_t control_api_next_ = 0;
  obs::MetricsRegistry metrics_;
  // The simulated measurement window.
  SimDuration period_ = 0;
  std::size_t measure_periods_ = 0;
  std::span<stats::PeriodSeries> series_;
  std::unique_ptr<sim::PeriodicTimer> measure_timer_;
  std::size_t measured_periods_ = 0;
  bool measuring_ = false;
};

}  // namespace haechi::harness
