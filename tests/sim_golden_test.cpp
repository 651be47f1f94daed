// Golden-digest tests: three short deterministic runs, each folded into one
// 64-bit digest of everything the simulation decides — the time and
// pending-queue depth at every event, the event count, per-period
// per-client completions, latency quantiles and the engine, monitor and
// cluster counters. The constants below were recorded before the
// simulator's host-side optimisations (4-ary slot-table event heap, bitmap
// round-robin station, shared Zipf table) and must never change: a
// host-only optimisation that perturbs event order, tie-breaking or an RNG
// stream fails here instead of shifting a figure by a fraction of a
// percent. A change that is *meant* to alter simulated behaviour updates
// the constants and says why (DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "workload/distributions.hpp"

namespace haechi::harness {
namespace {

constexpr std::uint64_t kControlMixDigest = 0x47b876e5b7e8fca2ULL;
constexpr std::uint64_t kOpenLoopDigest = 0x6fb296c9ab17e8d5ULL;
constexpr std::uint64_t kClusterBorrowDigest = 0x78843b5e2e22d312ULL;

/// Order-sensitive 64-bit fold (SplitMix64 finaliser over a running state).
class Digest {
 public:
  void Add(std::uint64_t v) {
    std::uint64_t z = state_ ^ (v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
  }
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x6a09e667f3bcc908ULL;
};

/// Folds every event's (time, live depth) into `digest` as the run goes.
void TapEvents(sim::Simulator& simulator, Digest& digest) {
  simulator.SetProgressHook(1, [&simulator, &digest](SimTime now,
                                                     std::uint64_t) {
    digest.Add(now);
    digest.Add(static_cast<std::uint64_t>(simulator.PendingEvents()));
  });
}

void AddSeries(Digest& d, const stats::PeriodSeries& series) {
  d.Add(static_cast<std::uint64_t>(series.Periods()));
  for (std::size_t p = 0; p < series.Periods(); ++p) {
    for (std::size_t c = 0; c < series.Clients(); ++c) {
      d.Add(series.At(p, MakeClientId(static_cast<std::uint32_t>(c))));
    }
  }
}

void AddLatency(Digest& d, const stats::Histogram& latency) {
  d.Add(latency.Count());
  if (latency.Count() == 0) return;
  d.Add(latency.Min());
  d.Add(latency.Max());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    d.Add(latency.ValueAtQuantile(q));
  }
}

void AddEngine(Digest& d, const core::ClientQosEngine::Stats& s) {
  d.Add(s.periods_started);
  d.Add(s.completed_this_period);
  d.Add(s.issued_this_period);
  d.Add(s.completed_total);
  d.Add(s.faa_ops);
  d.Add(s.report_writes);
  d.Add(s.rejected_submits);
  d.Add(s.limit_throttle_events);
  d.Add(s.tokens_from_reservation);
  d.Add(s.tokens_from_pool);
  d.Add(s.over_reserve_hints);
  d.Add(s.faa_failures);
  d.Add(s.faa_retries);
  d.Add(s.report_failures);
  d.Add(s.degraded_entries);
  d.Add(s.degraded_periods);
  d.Add(s.shed_on_recovery);
}

void AddMonitor(Digest& d, const core::QosMonitor::Stats& s) {
  d.Add(static_cast<std::uint64_t>(s.periods));
  d.Add(s.checks);
  d.Add(s.conversions);
  d.Add(s.report_signals);
  d.Add(s.over_reserve_hints);
  d.Add(s.last_period_completions);
  d.Add(s.lease_expirations);
  d.Add(s.readmissions);
  d.Add(s.reclaimed_tokens);
  d.Add(s.report_request_resends);
  d.Add(s.rebalances);
  d.Add(s.rebalanced_tokens);
  d.Add(s.lent_tokens);
  d.Add(s.absorbed_tokens);
  d.Add(s.crashes);
  d.Add(s.recoveries);
}

std::uint64_t RunExperiment(ExperimentConfig config) {
  Experiment exp(std::move(config));
  Digest d;
  TapEvents(exp.simulator(), d);
  const ExperimentResult r = exp.Run();
  d.Add(exp.simulator().EventsRun());
  d.Add(exp.simulator().Now());
  d.Add(r.events_run);
  AddSeries(d, r.series);
  for (const std::int64_t reservation : r.reservations) d.Add(reservation);
  AddLatency(d, r.latency);
  for (const auto& point : r.capacity_trace) {
    d.Add(static_cast<std::uint64_t>(point.period));
    d.Add(point.completions);
    d.Add(point.estimate);
  }
  AddMonitor(d, r.monitor_stats);
  for (const auto& engine : r.engine_stats) AddEngine(d, engine);
  return d.value();
}

constexpr double kScale = 0.02;

std::int64_t PeriodCapacity(const ExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops() *
                                   ToSeconds(config.qos.period));
}

// The sim_control_mix shape, shortened: 60 clients with Zipf reservations
// summing to 70% of capacity, every fourth under-using its reservation,
// constant-rate, 50% writes, Zipfian keys, token batch 10.
TEST(SimGolden, ControlMixDigestIsUnchanged) {
  ExperimentConfig config;
  config.net.capacity_scale = kScale;
  config.qos.period = Millis(100);
  config.qos.token_batch = 10;
  config.warmup = Millis(200);
  config.measure_periods = 5;
  config.seed = 7;
  config.key_kind = workload::KeyChooser::Kind::kZipfian;
  config.key_theta = 0.99;
  constexpr std::size_t kClients = 60;
  const auto reservations = workload::ZipfGroupShare(
      PeriodCapacity(config) * 7 / 10, kClients, 10, 0.6);
  for (std::size_t i = 0; i < kClients; ++i) {
    ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = i % 4 == 3 ? reservations[i] / 2 : reservations[i] * 3 / 2;
    spec.pattern = workload::RequestPattern::kConstantRate;
    spec.write_fraction = 0.5;
    config.clients.push_back(spec);
  }
  const std::uint64_t digest = RunExperiment(std::move(config));
  EXPECT_EQ(digest, kControlMixDigest) << "digest 0x" << std::hex << digest;
}

// The sim_paper_zipf shape (Exp 2A), shortened: 10 open-loop clients with
// Zipf reservations summing to 90% of capacity, demand = reservation plus
// the whole initial pool.
TEST(SimGolden, OpenLoopDigestIsUnchanged) {
  ExperimentConfig config;
  config.net.capacity_scale = kScale;
  config.qos.period = Millis(100);
  config.qos.token_batch = 100;
  config.warmup = Millis(200);
  config.measure_periods = 5;
  config.seed = 11;
  const std::int64_t cap = PeriodCapacity(config);
  const std::int64_t reserved = cap * 9 / 10;
  for (const std::int64_t r :
       workload::ZipfGroupShare(reserved, 10, 5, 0.6)) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + (cap - reserved);
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  const std::uint64_t digest = RunExperiment(std::move(config));
  EXPECT_EQ(digest, kOpenLoopDigest) << "digest 0x" << std::hex << digest;
}

// The sim_cluster_skew shape, shortened: 2 data nodes, four strictly
// provisioned residents on node 0, two managed clients skewed 95/5, and
// adaptive cross-node borrowing.
TEST(SimGolden, ClusterBorrowDigestIsUnchanged) {
  ClusterExperimentConfig config;
  config.net.capacity_scale = kScale;
  config.data_nodes = 2;
  config.qos.period = Millis(200);
  config.qos.token_batch = 50;
  config.warmup = Millis(400);
  config.measure_periods = 4;
  config.records = 1024;
  config.seed = 5;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops() *
                                             ToSeconds(config.qos.period));
  const std::int64_t resident_r = cap * 40 / 100 / 4;
  const std::int64_t managed_r = cap * 25 / 100 / 2;
  for (int i = 0; i < 4; ++i) {
    ClusterClientSpec resident;
    resident.tenant = 1;
    resident.reservation = resident_r;
    resident.limit = resident_r;
    resident.demand_per_node = {cap, 0};
    config.clients.push_back(resident);
  }
  for (int i = 0; i < 2; ++i) {
    ClusterClientSpec managed;
    managed.tenant = 0;
    managed.reservation = managed_r;
    const std::int64_t demand = managed_r * 16 / 10;
    managed.demand_per_node = {demand * 95 / 100, demand - demand * 95 / 100};
    config.clients.push_back(managed);
  }
  config.tenants = {{managed_r * 2, 0}, {resident_r * 4, 0}};
  config.cluster.borrow.policy = cluster::BorrowPolicy::kAdaptive;
  config.cluster.dry_watermark = config.qos.token_batch * 5;
  config.cluster.lender_floor = config.qos.token_batch * 10;
  config.cluster.borrow.quota = cap / 20;
  config.cluster.borrow.min_quota = config.qos.token_batch;
  config.cluster.borrow.max_quota = cap / 4;

  ClusterExperiment exp(std::move(config));
  Digest d;
  TapEvents(exp.simulator(), d);
  const ClusterExperimentResult r = exp.Run();
  d.Add(exp.simulator().EventsRun());
  d.Add(exp.simulator().Now());
  for (const auto& series : r.node_series) AddSeries(d, series);
  for (const auto& split : r.final_split) {
    for (const std::int64_t tokens : split) d.Add(tokens);
  }
  for (const auto& node : r.engine_stats) {
    for (const auto& engine : node) AddEngine(d, engine);
  }
  for (const auto& monitor : r.monitor_stats) AddMonitor(d, monitor);
  const auto& c = r.cluster_stats;
  for (const std::uint64_t v :
       {c.rebalances, c.tokens_moved, c.rejected_moves, c.dead_clients,
        c.stale_reports, c.borrow_requests, c.borrow_grants, c.node_joins,
        c.node_leaves, c.failovers}) {
    d.Add(v);
  }
  for (const std::int64_t v :
       {c.borrowed_tokens, c.repaid_tokens, c.migrated_tokens,
        c.written_off_tokens, r.borrow_granted, r.borrow_repaid,
        r.borrow_outstanding}) {
    d.Add(v);
  }
  // The run must actually borrow, or the digest pins nothing of src/cluster.
  EXPECT_GT(c.borrow_grants, 0u);
  EXPECT_EQ(d.value(), kClusterBorrowDigest)
      << "digest 0x" << std::hex << d.value();
}

}  // namespace
}  // namespace haechi::harness
