// Control-plane survivability tests (DESIGN.md §15): the monitor crashes
// and recovers from its in-region checkpoint, clients ride out the outage
// in reservation-only degraded mode and re-sync when the monitor returns,
// and the cluster layer survives membership churn plus a coordinator
// failover — all without violating a single conservation identity.
//
// Three layers are exercised:
//   * sim (deterministic): crash mid-run, bounded recovery, determinism,
//     crash-without-recovery, and the A11 checkpoint-consistency audit;
//   * threaded runtime (wall clock, tsan target): the same crash/recover
//     script against ThreadedMonitor/ThreadedEngine;
//   * cluster: one node leaves, one joins, the standby coordinator is
//     promoted — C4 migration sum-neutrality holds throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using harness::ClientSpec;
using harness::ClusterClientSpec;
using harness::ClusterExperiment;
using harness::ClusterExperimentConfig;
using harness::ClusterExperimentResult;
using harness::Experiment;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using obs::AuditReport;
using obs::EventType;
using obs::TraceEvent;

constexpr std::size_t kClients = 4;

std::int64_t Capacity(const ExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops());
}

bool HasViolation(const AuditReport& report, const std::string& check) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [&](const obs::AuditViolation& v) { return v.check == check; });
}

/// Saturated 4-client Haechi run with the flight recorder on: 60% of
/// capacity reserved, open-loop demand above every share, checkpoints
/// every period so any crash instant has a fresh epoch to recover from.
ExperimentConfig SurvivableConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 10;
  config.records = 256;
  config.qos.token_batch = 100;
  config.qos.report_lease_intervals = 8;
  config.seed = seed;
  config.trace.enabled = true;
  const std::int64_t cap = Capacity(config);
  for (const auto r : workload::UniformShare(cap * 6 / 10, kClients)) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + cap / 5;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  return config;
}

/// The standard outage script: crash mid-period-3 of the measured window,
/// recover 1.2 periods later (long enough that every engine's degraded
/// grace trips).
ExperimentConfig OutageConfig(std::uint64_t seed) {
  ExperimentConfig config = SurvivableConfig(seed);
  config.faults.MonitorCrashAt(0, Seconds(3), Seconds(4) + Millis(200));
  return config;
}

// ---------------------------------------------------------------------------
// Sim: monitor crash mid-run.

TEST(MonitorCrashRecovery, OutageMidRunAuditsClean) {
  Experiment experiment(OutageConfig(11));
  ExperimentResult result = experiment.Run();

  EXPECT_EQ(result.monitor_stats.crashes, 1u);
  EXPECT_EQ(result.monitor_stats.recoveries, 1u);
  // The outage outlives every engine's degraded grace (1.5 periods), so
  // each client entered reservation-only mode at least once and self-issued
  // at least one synthetic period.
  for (const auto& stats : result.engine_stats) {
    EXPECT_GE(stats.degraded_entries, 1u);
    EXPECT_GE(stats.degraded_periods, 1u);
  }

  // The full A1-A11 audit holds on the faulted trace — no conservation
  // identity broke across the crash, the recovery restored a checkpoint
  // the trace actually contains, and the fabric is flagged as faulted
  // (the A5 band and A9 outage exclusion applied, not vacuous). With
  // tracing compiled out the trace carries no monitor events to audit.
  ASSERT_NE(experiment.recorder(), nullptr);
#if HAECHI_TRACE_ENABLED
  const AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_FALSE(report.clean);
#endif
}

TEST(MonitorCrashRecovery, DegradedModeKeepsReservationOnlyService) {
  Experiment faulted(OutageConfig(12));
  ExperimentResult with_outage = faulted.Run();

  ExperimentConfig clean_config = SurvivableConfig(12);
  ExperimentResult clean = Experiment(std::move(clean_config)).Run();

  // Degraded clients fall back from (reservation + pool share) to
  // reservation only, so the run loses throughput — but never the
  // reservation floor: the outage covers ~1.2 of 10 measured periods and
  // reservations are 60% of capacity, so the total stays above 60% of the
  // clean run even with the re-sync dip.
  EXPECT_LT(with_outage.total_kiops, clean.total_kiops);
  EXPECT_GT(with_outage.total_kiops, clean.total_kiops * 0.60);
}

TEST(MonitorCrashRecovery, RecoveryIsBoundedToTrailingPeriods) {
  Experiment experiment(OutageConfig(13));
  ExperimentResult result = experiment.Run();

  // The outage ends at 4.2 s; the run measures through ~11 s. Recovery is
  // bounded (backlog shed + reservation discount at re-sync), so the last
  // two measured periods are fully back on guarantee for every client.
  const std::size_t periods = result.series.Periods();
  ASSERT_GE(periods, 2u);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    for (std::size_t p = periods - 2; p < periods; ++p) {
      EXPECT_GE(result.series.At(p, MakeClientId(c)),
                result.reservations[c] * 90 / 100)
          << "client " << c << " period " << p;
    }
  }
}

TEST(MonitorCrashRecovery, CrashScenarioIsDeterministic) {
  ExperimentResult a = Experiment(OutageConfig(7)).Run();
  ExperimentResult b = Experiment(OutageConfig(7)).Run();
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.total_kiops, b.total_kiops);
  EXPECT_EQ(a.monitor_stats.crashes, b.monitor_stats.crashes);
  EXPECT_EQ(a.monitor_stats.recoveries, b.monitor_stats.recoveries);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(a.series.ClientTotal(MakeClientId(c)),
              b.series.ClientTotal(MakeClientId(c)));
  }
}

TEST(MonitorCrashRecovery, MonitorNeverReturnsDegradedModeIsBounded) {
  ExperimentConfig config = SurvivableConfig(14);
  config.faults.MonitorCrashAt(0, Seconds(3));  // never recovers
  Experiment experiment(std::move(config));
  ExperimentResult result = experiment.Run();

  EXPECT_EQ(result.monitor_stats.crashes, 1u);
  EXPECT_EQ(result.monitor_stats.recoveries, 0u);
  // Every engine degraded, self-issued at most degraded_max_periods
  // synthetic periods, then stopped issuing — no unbounded free service.
  for (const auto& stats : result.engine_stats) {
    EXPECT_GE(stats.degraded_entries, 1u);
    EXPECT_LE(stats.degraded_periods,
              experiment.config().qos.degraded_max_periods);
  }
  // An open-ended outage excludes everything after the crash from the
  // guarantee checks; the identities before it still hold.
  ASSERT_NE(experiment.recorder(), nullptr);
  const AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty());
}

// ---------------------------------------------------------------------------
// A11: the audit cross-checks recovery claims against captured checkpoints.

TEST(CheckpointConsistency, RecoveryWithoutCrashIsFlagged) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#endif
  Experiment experiment(OutageConfig(15));
  experiment.Run();
  std::vector<TraceEvent> events = experiment.recorder()->Merged();
  // Tamper: drop the crash, keep the recovery.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const TraceEvent& e) {
                                return e.type == EventType::kMonitorCrash;
                              }),
               events.end());
  EXPECT_TRUE(HasViolation(obs::AuditTrace(events), "A11"));
}

TEST(CheckpointConsistency, ForgedRecoveryEpochIsFlagged) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#endif
  Experiment experiment(OutageConfig(16));
  experiment.Run();
  std::vector<TraceEvent> events = experiment.recorder()->Merged();
  // Tamper: the recovery claims a reservation sum no checkpoint captured.
  for (TraceEvent& e : events) {
    if (e.type == EventType::kMonitorRecover) e.b += 1;
  }
  EXPECT_TRUE(HasViolation(obs::AuditTrace(events), "A11"));
}

// ---------------------------------------------------------------------------
// Threaded runtime: the same outage script on wall-clock threads. This is
// the tsan-survivability target: Crash() races real FAA traffic, worker
// threads ride through degraded mode, Recover() re-syncs them.

TEST(ThreadedSurvivability, MonitorCrashRecoveryAuditsClean) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
  config.qos.token_batch = 10;
  config.qos.pool_shards = 4;
  config.qos.pool_retry_interval = Millis(2);
  config.qos.faa_end_guard = Millis(20);
  config.qos.report_lease_intervals = 0;  // silence is the point here
  config.profiled_global_iops = 20000;
  config.profiled_local_iops = 8000;
  config.records = 4096;
  config.warmup = Millis(200);
  config.measure_periods = 8;
  config.seed = 99;
  config.trace.enabled = true;
  config.trace.ring_capacity = 1u << 17;
  const std::int64_t reservations[] = {500, 400, 200, 100};
  for (const std::int64_t r : reservations) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + 150;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  // Crash mid-period at 350 ms; grace (1.5 periods from the 300 ms
  // boundary) trips at 450 ms; recover at 650 ms after two synthetic
  // degraded periods.
  config.faults.MonitorCrashAt(0, Millis(350), Millis(650));

  harness::ThreadedExperiment experiment(config);
  harness::ThreadedExperimentResult result = experiment.Run();

  EXPECT_EQ(result.monitor_stats.crashes, 1u);
  EXPECT_EQ(result.monitor_stats.recoveries, 1u);
  std::uint64_t degraded_entries = 0;
  for (const auto& stats : result.engine_stats) {
    degraded_entries += stats.degraded_entries;
  }
  // Wall-clock scheduling means an individual engine can straddle the
  // grace deadline, but the outage outlives the grace by 2x the period:
  // every engine must have tripped.
  EXPECT_EQ(degraded_entries, std::size(reservations));

  // The ledger keeps exactly one unclosed (crashed) entry besides the
  // final open period, and the conservation audit holds on the trace.
  ASSERT_NE(experiment.recorder(), nullptr);
  const AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations[0].detail);
  EXPECT_FALSE(report.clean);
}

// ---------------------------------------------------------------------------
// Cluster: membership churn + coordinator failover under load.

ClusterExperimentConfig MembershipConfig() {
  ClusterExperimentConfig config;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(2);
  config.measure_periods = 8;
  config.records = 256;
  config.qos.token_batch = 50;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  // Three data nodes, three clients, each client homed on one node with a
  // modest spill to the others; reservations stay well inside the
  // two-node admissible region so the join/leave never strands a split.
  config.data_nodes = 3;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    ClusterClientSpec spec;
    spec.tenant = 0;
    spec.reservation = cap / 10;
    const std::int64_t demand = cap / 10 + cap / 20;
    spec.demand_per_node.assign(3, demand / 10);
    spec.demand_per_node[i] = demand * 8 / 10;
    config.clients.push_back(spec);
    total += spec.reservation;
  }
  config.tenants = {{total, 0}};
  config.trace.enabled = true;
  return config;
}

TEST(ClusterSurvivability, JoinLeaveAndFailoverPreserveSumNeutrality) {
  ClusterExperimentConfig config = MembershipConfig();
  // Node 2 starts inactive and joins at 4 s; the standby coordinator is
  // promoted at 5.5 s; node 1 leaves at 7 s (migrating its splits onto
  // the survivors). All three land inside the measured window.
  config.join_at = Seconds(4);
  config.failover_at = Seconds(5) + Millis(500);
  config.leave_at = Seconds(7);

  ClusterExperiment experiment(std::move(config));
  ClusterExperimentResult result = experiment.Run();

  EXPECT_EQ(result.cluster_stats.node_joins, 1u);
  EXPECT_EQ(result.cluster_stats.node_leaves, 1u);
  EXPECT_EQ(result.cluster_stats.failovers, 1u);
  EXPECT_GT(result.cluster_stats.migrated_tokens, 0);

  // Every live client's final split sums to its full reservation — the
  // leave migrated tokens, never destroyed them — and the departed node
  // holds none of it.
  for (std::size_t c = 0; c < result.final_split.size(); ++c) {
    const auto& split = result.final_split[c];
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(std::accumulate(split.begin(), split.end(), std::int64_t{0}),
              experiment.config().clients[c].reservation)
        << "client " << c;
    EXPECT_EQ(split[1], 0) << "client " << c << " still split on the "
                           << "departed node";
  }

  // C4 (and the rest of the cluster identities) hold on the trace.
  ASSERT_NE(experiment.recorder(), nullptr);
  const AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

TEST(ClusterSurvivability, MembershipScriptIsDeterministic) {
  auto run = [] {
    ClusterExperimentConfig config = MembershipConfig();
    config.trace.enabled = false;
    config.join_at = Seconds(4);
    config.failover_at = Seconds(5) + Millis(500);
    config.leave_at = Seconds(7);
    return ClusterExperiment(std::move(config)).Run();
  };
  const ClusterExperimentResult a = run();
  const ClusterExperimentResult b = run();
  EXPECT_EQ(a.total_kiops, b.total_kiops);
  EXPECT_EQ(a.cluster_stats.migrated_tokens, b.cluster_stats.migrated_tokens);
  EXPECT_EQ(a.final_split, b.final_split);
}

}  // namespace
}  // namespace haechi
