// Tests for the experiment harness itself and the profiling helper —
// the plumbing every bench and example relies on — plus the run-scaffold
// contract all three harnesses (sim, cluster, threads) share.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "harness/profiling.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/export.hpp"

namespace haechi::harness {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.net.capacity_scale = 0.02;
  config.warmup = Millis(500);
  config.measure_periods = 2;
  config.records = 128;
  config.qos.token_batch = 50;
  return config;
}

TEST(Harness, UniformClientsHelper) {
  const auto specs =
      UniformClients(4, 100, 200, workload::RequestPattern::kBurst);
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.reservation, 100);
    EXPECT_EQ(spec.demand, 200);
    EXPECT_EQ(spec.pattern, workload::RequestPattern::kBurst);
    EXPECT_EQ(spec.limit, 0);
  }
}

TEST(Harness, SeriesHasOneRowPerMeasuredPeriod) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kBare;
  config.clients = UniformClients(
      2, 0, static_cast<std::int64_t>(config.net.GlobalCapacityIops()),
      workload::RequestPattern::kBurst);
  ExperimentResult r = Experiment(std::move(config)).Run();
  EXPECT_EQ(r.series.Periods(), 2u);
  EXPECT_EQ(r.series.Clients(), 2u);
  EXPECT_GT(r.series.Total(), 0);
  EXPECT_GT(r.events_run, 0u);
}

TEST(Harness, LatencyRecordedOnlyAfterWarmup) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kBare;
  config.clients = UniformClients(1, 0, 1000,
                                  workload::RequestPattern::kConstantRate);
  ExperimentResult r = Experiment(std::move(config)).Run();
  // 2 measured periods at 1000/period; warm-up samples excluded.
  EXPECT_LE(r.latency.Count(), 2100u);
  EXPECT_GT(r.latency.Count(), 1800u);
  EXPECT_GT(r.latency.Mean(), 0.0);
}

TEST(Harness, ResultCarriesEngineAndMonitorStats) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kHaechi;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  ClientSpec spec;
  spec.reservation = cap / 5;
  spec.demand = cap / 4;
  spec.pattern = workload::RequestPattern::kOpenLoop;
  config.clients = {spec, spec};
  ExperimentResult r = Experiment(std::move(config)).Run();
  ASSERT_EQ(r.engine_stats.size(), 2u);
  EXPECT_GT(r.engine_stats[0].completed_total, 0);
  EXPECT_GE(r.monitor_stats.periods, 2u);
  EXPECT_EQ(r.reservations, (std::vector<std::int64_t>{cap / 5, cap / 5}));
}

TEST(Harness, TwoSidedModeServesRpcs) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kBare;
  config.io_path = IoPath::kTwoSided;
  config.clients = UniformClients(
      2, 0, static_cast<std::int64_t>(config.net.TwoSidedCapacityIops()),
      workload::RequestPattern::kBurst);
  Experiment exp(std::move(config));
  ExperimentResult r = exp.Run();
  EXPECT_GT(r.total_kiops, 0.0);
  EXPECT_GT(exp.server().RpcsServed(), 0u);
}

TEST(Harness, CopyPayloadsValidatesRealData) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kBare;
  config.copy_payloads = true;
  config.clients = UniformClients(1, 0, 500,
                                  workload::RequestPattern::kConstantRate);
  // KvClient validation is off by default, but the seqlock check runs on
  // every GET; a clean run proves frames stayed consistent.
  ExperimentResult r = Experiment(std::move(config)).Run();
  EXPECT_GT(r.series.Total(), 900);
}

TEST(Harness, BackgroundTrafficReducesForegroundShare) {
  auto run = [](std::int64_t bg_demand) {
    ExperimentConfig config = TinyConfig();
    config.measure_periods = 3;
    config.mode = Mode::kBare;
    const auto cap =
        static_cast<std::int64_t>(config.net.GlobalCapacityIops());
    config.clients = UniformClients(4, 0, cap,
                                    workload::RequestPattern::kBurst);
    config.background_demand = bg_demand;
    return Experiment(std::move(config)).Run().total_kiops;
  };
  const double quiet = run(0);
  ExperimentConfig probe = TinyConfig();
  const auto cap =
      static_cast<std::int64_t>(probe.net.GlobalCapacityIops());
  const double congested = run(cap / 10 / 4);  // ~10% across 4 nodes
  EXPECT_LT(congested, quiet * 0.95);
  EXPECT_GT(congested, quiet * 0.80);
}

TEST(Profiling, MeanMatchesCalibratedCapacity) {
  net::ModelParams params;
  params.capacity_scale = 0.02;
  const ProfileResult result =
      ProfileCapacity(params, /*clients=*/6, /*reps=*/5, /*seed=*/3,
                      /*period=*/Millis(250));
  ASSERT_EQ(result.samples_iops.size(), 5u);
  EXPECT_NEAR(result.mean_iops, params.GlobalCapacityIops(),
              params.GlobalCapacityIops() * 0.03);
  // Deterministic per-seed jitter keeps sigma small but nonzero.
  EXPECT_GE(result.sigma_iops, 0.0);
  EXPECT_LT(result.sigma_iops, params.GlobalCapacityIops() * 0.02);
}

TEST(Profiling, SingleClientProfilesLocalCapacity) {
  net::ModelParams params;
  params.capacity_scale = 0.02;
  const ProfileResult result =
      ProfileCapacity(params, /*clients=*/1, /*reps=*/3, /*seed=*/9,
                      /*period=*/Millis(250));
  EXPECT_NEAR(result.mean_iops, params.LocalCapacityIops(),
              params.LocalCapacityIops() * 0.03);
}

// ---------------------------------------------------------------------------
// The run-scaffold contract: every harness arms, rolls up and exports the
// same way.

using TraceConfig = ExperimentConfig::TraceConfig;
using WatchdogConfig = ExperimentConfig::WatchdogConfig;
using ControlConfig = ExperimentConfig::ControlConfig;

/// Sets a harness's scaffold knobs before its run.
using Knobs =
    std::function<void(TraceConfig&, WatchdogConfig&, ControlConfig&)>;

/// One harness run, seen through the scaffold's accessors.
struct ScaffoldOutcome {
  obs::MetricsRegistry metrics;
  bool has_recorder = false;
};

template <typename Harness>
ScaffoldOutcome Outcome(Harness& harness) {
  return {harness.metrics(), harness.recorder() != nullptr};
}

ScaffoldOutcome RunSim(const Knobs& knobs) {
  ExperimentConfig config = TinyConfig();
  config.mode = Mode::kHaechi;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  config.clients = UniformClients(2, cap / 5, cap / 4,
                                  workload::RequestPattern::kOpenLoop);
  knobs(config.trace, config.watchdog, config.control);
  Experiment experiment(std::move(config));
  experiment.Run();
  return Outcome(experiment);
}

ScaffoldOutcome RunCluster(const Knobs& knobs) {
  ClusterExperimentConfig config;
  config.net.capacity_scale = 0.02;
  config.warmup = Millis(500);
  config.measure_periods = 2;
  config.records = 128;
  config.qos.token_batch = 50;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  for (int i = 0; i < 2; ++i) {
    ClusterClientSpec spec;
    spec.reservation = cap / 5;
    spec.demand_per_node = {cap / 8, cap / 8};
    config.clients.push_back(spec);
  }
  config.tenants = {{2 * (cap / 5), 0}};
  knobs(config.trace, config.watchdog, config.control);
  ClusterExperiment experiment(std::move(config));
  experiment.Run();
  return Outcome(experiment);
}

ScaffoldOutcome RunThreads(const Knobs& knobs) {
  ExperimentConfig config;
  config.mode = Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
  config.qos.token_batch = 10;
  config.profiled_global_iops = 20000;
  config.profiled_local_iops = 8000;
  config.records = 1024;
  config.warmup = Millis(200);
  config.measure_periods = 3;
  config.clients = UniformClients(2, 400, 800,
                                  workload::RequestPattern::kOpenLoop);
  knobs(config.trace, config.watchdog, config.control);
  ThreadedExperiment experiment(std::move(config));
  experiment.Run();
  return Outcome(experiment);
}

struct NamedHarness {
  const char* name;
  ScaffoldOutcome (*run)(const Knobs&);
};
constexpr NamedHarness kHarnesses[] = {
    {"sim", RunSim}, {"cluster", RunCluster}, {"threads", RunThreads}};

TEST(RunScaffold, TraceOutPathAloneWritesATraceFile) {
  for (const NamedHarness& harness : kHarnesses) {
    const std::string path = ::testing::TempDir() + "/haechi_scaffold_" +
                             harness.name + ".csv";
    std::remove(path.c_str());
    const ScaffoldOutcome outcome =
        harness.run([&](TraceConfig& trace, WatchdogConfig&, ControlConfig&) {
          trace.out_path = path;
        });
    EXPECT_TRUE(outcome.has_recorder) << harness.name;
    const auto written = obs::ReadFileToString(path);
    ASSERT_TRUE(written.ok()) << harness.name;
    // The run header is a harness event, recorded in every build.
    EXPECT_NE(written.value().find("run_config"), std::string::npos)
        << harness.name;
  }
}

TEST(RunScaffold, ArmedControllerExportsWatchdogAndControllerRollups) {
#if !HAECHI_WATCHDOG_ENABLED
  GTEST_SKIP() << "watchdog compiled out";
#endif
  for (const NamedHarness& harness : kHarnesses) {
    const ScaffoldOutcome outcome =
        harness.run([](TraceConfig&, WatchdogConfig&, ControlConfig& control) {
          control.policy = core::control::Policy::kConservative;
        });
    EXPECT_GT(outcome.metrics.CounterValue("watchdog.periods_evaluated"), 0)
        << harness.name;
    for (const char* rollup :
         {"watchdog.alerts", "watchdog.critical", "controller.alerts",
          "controller.resizes", "controller.eta_scalings",
          "controller.forced_conversions", "controller.readmits",
          "controller.recoveries"}) {
      EXPECT_TRUE(outcome.metrics.Has(rollup)) << harness.name << " " << rollup;
    }
  }
}

TEST(RunScaffold, RingWrapIsCountedInDroppedEvents) {
  for (const NamedHarness& harness : kHarnesses) {
#if !HAECHI_TRACE_ENABLED
    // A simulated run then records only the harness's own handful of
    // events per actor, too few to wrap even a 64-event ring.
    if (std::string(harness.name) != "threads") continue;
#endif
    const ScaffoldOutcome outcome =
        harness.run([](TraceConfig& trace, WatchdogConfig&, ControlConfig&) {
          trace.enabled = true;
          trace.ring_capacity = 64;
        });
    EXPECT_GT(outcome.metrics.CounterValue("trace.dropped_events"), 0)
        << harness.name;
  }
}

}  // namespace
}  // namespace haechi::harness
