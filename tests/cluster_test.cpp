// Tests for the cluster subsystem (the paper's §V future work): the
// ClusterCoordinator's reservation splitting, usage-driven rebalancing,
// tenant hierarchy, invariants, and the end-to-end multi-node harness.
#include <gtest/gtest.h>

#include <numeric>

#include "cluster/coordinator.hpp"
#include "harness/cluster_experiment.hpp"
#include "obs/audit.hpp"

namespace haechi {
namespace {

using harness::ClusterClientSpec;
using harness::ClusterExperiment;
using harness::ClusterExperimentConfig;
using harness::ClusterExperimentResult;

ClusterExperimentConfig BaseConfig() {
  ClusterExperimentConfig config;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(2);
  config.measure_periods = 6;
  config.records = 256;
  config.qos.token_batch = 50;
  return config;
}

/// Puts every client under one tenant sized to exactly fit their
/// reservations (the single-tenant harness shape).
void SingleTenant(ClusterExperimentConfig& config) {
  std::int64_t total = 0;
  for (auto& client : config.clients) {
    client.tenant = 0;
    total += client.reservation;
  }
  config.tenants = {{total, 0}};
}

std::int64_t Capacity(const ClusterExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops());
}

TEST(Cluster, InitialSplitIsEqualAndSumsToReservation) {
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 3;
  config.measure_periods = 1;
  const std::int64_t cap = Capacity(config);
  ClusterClientSpec spec;
  spec.reservation = cap / 5 * 3;  // cap/5 per node after the even split
  spec.demand_per_node = {cap / 5, cap / 5, cap / 5};
  config.clients = {spec};
  SingleTenant(config);

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  ASSERT_EQ(r.final_split.size(), 1u);
  const auto& split = r.final_split[0];
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), std::int64_t{0}),
            cap / 5 * 3);
}

TEST(Cluster, SplitFollowsSkewedDemand) {
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  const std::int64_t cap = Capacity(config);
  // 80% of this client's traffic goes to node 0.
  ClusterClientSpec skewed;
  skewed.reservation = cap / 5;
  skewed.demand_per_node = {cap / 5 * 8 / 10, cap / 5 * 2 / 10};
  config.clients = {skewed};
  SingleTenant(config);

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  const auto& split = r.final_split[0];
  EXPECT_EQ(split[0] + split[1], cap / 5);
  // The split converges toward the 80/20 demand shape (min_share floor
  // keeps a sliver on the cold node).
  EXPECT_GT(split[0], cap / 5 * 65 / 100);
  EXPECT_LT(split[1], cap / 5 * 35 / 100);
  EXPECT_GT(r.cluster_stats.rebalances, 0u);
  EXPECT_GT(r.cluster_stats.tokens_moved, 0u);
}

TEST(Cluster, ReservationMetAcrossNodesDespiteSkew) {
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  const std::int64_t cap = Capacity(config);
  // The skewed client competes with node-local heavy clients on node 0.
  ClusterClientSpec skewed;
  skewed.reservation = cap / 5;
  skewed.demand_per_node = {cap / 5 * 8 / 10, cap / 5 * 2 / 10};
  ClusterClientSpec hog;  // floods node 0 with best-effort traffic
  hog.reservation = 0;
  hog.demand_per_node = {cap, 0};
  config.clients = {skewed, hog};
  SingleTenant(config);

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  // After the split converges (skip the first 2 measured periods), the
  // skewed client's cluster-wide completions meet its reservation.
  const auto id = MakeClientId(0);
  for (std::size_t p = 2; p < r.node_series[0].Periods(); ++p) {
    const std::int64_t cluster_total =
        r.node_series[0].At(p, id) + r.node_series[1].At(p, id);
    EXPECT_GE(cluster_total, skewed.reservation * 95 / 100)
        << "period " << p;
  }
}

TEST(Cluster, SplitTracksDemandShift) {
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  config.measure_periods = 10;
  const std::int64_t cap = Capacity(config);
  ClusterClientSpec spec;
  spec.reservation = cap / 5;
  spec.demand_per_node = {cap / 5 * 9 / 10, cap / 5 * 1 / 10};
  config.clients = {spec};
  SingleTenant(config);
  // Mid-run the demand flips to the other node.
  config.shift_at = config.warmup + Seconds(4);
  config.shifted_demand = {{cap / 5 * 1 / 10, cap / 5 * 9 / 10}};

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  const auto& split = r.final_split[0];
  // By the end the split has followed the flip.
  EXPECT_GT(split[1], split[0]);
  EXPECT_EQ(split[0] + split[1], cap / 5);
}

TEST(Cluster, AdmitRejectsWhenAnyNodeLacksCapacity) {
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  config.measure_periods = 1;
  const std::int64_t cap = Capacity(config);
  ClusterClientSpec too_big;
  // Per-node share cap/2 exceeds the per-node local capacity (~cap/4).
  too_big.reservation = cap;
  too_big.demand_per_node = {cap / 2, cap / 2};
  config.clients = {too_big};
  SingleTenant(config);
  EXPECT_DEATH(ClusterExperiment(std::move(config)).Run(), "");
}

TEST(Cluster, CoordinatorApiValidation) {
  sim::Simulator sim;
  net::ModelParams params;
  params.capacity_scale = 0.02;
  rdma::Fabric fabric(sim, params, 1);
  rdma::Node& data = fabric.AddNode("data", rdma::NodeRole::kData);
  core::QosConfig qos;
  core::QosMonitor monitor(sim, qos, data, params.GlobalCapacityIops(),
                           params.LocalCapacityIops());
  cluster::ClusterCoordinator coordinator(sim, {}, {&monitor});

  // A client cannot be admitted before its tenant exists.
  auto orphan = coordinator.AdmitClient(0, MakeClientId(0), 100, 0, {});
  EXPECT_EQ(orphan.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(coordinator.AddTenant(0, 500, 0).ok());
  EXPECT_EQ(coordinator.AddTenant(0, 500, 0).code(),
            StatusCode::kFailedPrecondition);

  // Wrong control-QP arity.
  auto bad = coordinator.AdmitClient(0, MakeClientId(0), 100, 0, {});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Unknown client queries.
  EXPECT_EQ(coordinator.SplitOf(MakeClientId(9)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(coordinator.ReleaseClient(MakeClientId(9)).code(),
            StatusCode::kNotFound);

  // Admit, duplicate-admit, release.
  rdma::Node& client_node = fabric.AddNode("client");
  auto& cq_a = client_node.CreateCq();
  auto& cq_b = data.CreateCq();
  auto& qp_a = client_node.CreateQp(cq_a, cq_a);
  auto& qp_b = data.CreateQp(cq_b, cq_b);
  fabric.Connect(qp_a, qp_b);
  auto ok = coordinator.AdmitClient(0, MakeClientId(0), 100, 0, {&qp_b});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 1u);
  auto dup = coordinator.AdmitClient(0, MakeClientId(0), 100, 0, {&qp_b});
  EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);

  // The tenant envelope binds: a second client pushing sum R_i past R_t is
  // rejected before any node-level admission, and release frees the room.
  auto over = coordinator.AdmitClient(0, MakeClientId(1), 450, 0, {&qp_b});
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(coordinator.ReleaseClient(MakeClientId(0)).ok());
  EXPECT_FALSE(monitor.admission().IsAdmitted(MakeClientId(0)));
  EXPECT_TRUE(
      coordinator.AdmitClient(0, MakeClientId(1), 450, 0, {&qp_b}).ok());
}

TEST(Cluster, TenantDirectoryNesting) {
  cluster::TenantDirectory directory(1000);
  ASSERT_TRUE(directory.AddTenant(1, 600, 0).ok());
  // Top level: sum_t R_t <= cluster reservable.
  EXPECT_EQ(directory.AddTenant(2, 500, 0).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(directory.AddTenant(2, 400, 800).ok());

  // Client level: sum_{i in t} R_i <= R_t.
  ASSERT_TRUE(directory.AdmitClient(1, MakeClientId(0), 400, 0).ok());
  EXPECT_EQ(directory.AdmitClient(1, MakeClientId(1), 300, 0).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(directory.AdmitClient(1, MakeClientId(1), 200, 0).ok());

  // A limited tenant requires per-client limits, and they nest too.
  EXPECT_EQ(directory.AdmitClient(2, MakeClientId(2), 100, 0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(directory.AdmitClient(2, MakeClientId(2), 100, 500).ok());
  EXPECT_EQ(directory.AdmitClient(2, MakeClientId(3), 100, 400).code(),
            StatusCode::kResourceExhausted);

  // Reservation updates re-check the envelope.
  EXPECT_EQ(directory.UpdateClientReservation(MakeClientId(1), 250).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(directory.UpdateClientReservation(MakeClientId(1), 150).ok());
  EXPECT_EQ(directory.FindTenant(1)->reserved, 550);

  // Only an empty tenant can be removed; release drains it.
  EXPECT_EQ(directory.RemoveTenant(1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(directory.ReleaseClient(MakeClientId(0)).ok());
  EXPECT_TRUE(directory.ReleaseClient(MakeClientId(1)).ok());
  EXPECT_TRUE(directory.RemoveTenant(1).ok());
}

TEST(Cluster, BorrowLedgerConservation) {
  cluster::BorrowConfig borrow;
  borrow.policy = cluster::BorrowPolicy::kStatic;
  borrow.quota = 1000;
  cluster::BorrowLedger ledger(3, borrow);

  ledger.RecordGrant(0, 1, 400);
  ledger.RecordGrant(2, 1, 300);
  ledger.RecordGrant(0, 2, 100);
  EXPECT_EQ(ledger.BorrowedThisPeriod(1), 700);
  EXPECT_EQ(ledger.Headroom(1), 300);
  EXPECT_EQ(ledger.OwedBy(1), 700);
  EXPECT_EQ(ledger.OwedTo(0), 500);

  ledger.RecordRepay(1, 0, 400);
  ledger.RecordRepay(1, 2, 250);
  // granted == repaid + outstanding, pairwise and in total.
  EXPECT_EQ(ledger.Outstanding(2, 1), 50);
  EXPECT_EQ(ledger.TotalGranted(),
            ledger.TotalRepaid() + ledger.TotalOutstanding());
  EXPECT_EQ(ledger.TotalOutstanding(), 150);

  // Repaying more than owed is a ledger corruption, not a clamp.
  EXPECT_DEATH(ledger.RecordRepay(1, 2, 51), "");
}

TEST(Cluster, AdaptiveQuotaFollowsConsumption) {
  cluster::BorrowConfig borrow;
  borrow.policy = cluster::BorrowPolicy::kAdaptive;
  borrow.quota = 1000;
  borrow.min_quota = 250;
  borrow.max_quota = 4000;
  cluster::BorrowLedger ledger(2, borrow);

  // Fully consumed -> multiplicative increase, clamped at max.
  ledger.AdaptQuota(0, 1000, 0);
  EXPECT_EQ(ledger.Quota(0), 2000);
  ledger.AdaptQuota(0, 2000, 0);
  EXPECT_EQ(ledger.Quota(0), 4000);
  ledger.AdaptQuota(0, 4000, 0);
  EXPECT_EQ(ledger.Quota(0), 4000);

  // Mostly idle -> multiplicative decrease, clamped at min.
  ledger.AdaptQuota(0, 1000, 800);
  EXPECT_EQ(ledger.Quota(0), 2000);
  ledger.AdaptQuota(0, 1000, 800);
  EXPECT_EQ(ledger.Quota(0), 1000);
  ledger.AdaptQuota(0, 100, 90);
  ledger.AdaptQuota(0, 100, 90);
  EXPECT_EQ(ledger.Quota(0), 250);

  // In-between consumption leaves the quota alone; no borrowing = no signal.
  ledger.AdaptQuota(1, 1000, 300);
  EXPECT_EQ(ledger.Quota(1), 1000);
  ledger.AdaptQuota(1, 0, 0);
  EXPECT_EQ(ledger.Quota(1), 1000);
}

TEST(Cluster, BorrowingBridgesSkewedPools) {
  // Node 0 runs dry (hog demand, all pool drained); node 1 idles. With
  // adaptive borrowing the coordinator imports node 1's idle pool tokens
  // and the ledger settles every loan at the boundaries.
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  config.measure_periods = 6;
  const std::int64_t cap = Capacity(config);
  ClusterClientSpec hungry;  // small reservation, hot-node demand only
  hungry.reservation = cap / 10;
  hungry.demand_per_node = {cap, 0};
  config.clients = {hungry};
  SingleTenant(config);
  config.cluster.borrow.policy = cluster::BorrowPolicy::kAdaptive;

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  EXPECT_GT(r.cluster_stats.borrow_requests, 0u);
  EXPECT_GT(r.cluster_stats.borrow_grants, 0u);
  EXPECT_GT(r.borrow_granted, 0);
  // Conservation: everything granted is repaid or still on the books.
  EXPECT_EQ(r.borrow_granted,
            r.borrow_repaid + r.borrow_outstanding);
  EXPECT_GT(r.borrow_repaid, 0);
  // The monitors' ledgers saw the same movements.
  EXPECT_EQ(r.monitor_stats[0].lent_tokens + r.monitor_stats[1].lent_tokens,
            r.borrow_granted + r.borrow_repaid);
}

TEST(Cluster, MonitorUpdateReservationSemantics) {
  sim::Simulator sim;
  net::ModelParams params;
  params.capacity_scale = 0.02;
  rdma::Fabric fabric(sim, params, 1);
  rdma::Node& data = fabric.AddNode("data", rdma::NodeRole::kData);
  rdma::Node& client_node = fabric.AddNode("client");
  core::QosConfig qos;
  core::QosMonitor monitor(sim, qos, data, params.GlobalCapacityIops(),
                           params.LocalCapacityIops());
  auto& cq_a = client_node.CreateCq();
  auto& cq_b = data.CreateCq();
  auto& qp_a = client_node.CreateQp(cq_a, cq_a);
  auto& qp_b = data.CreateQp(cq_b, cq_b);
  fabric.Connect(qp_a, qp_b);

  const auto local = static_cast<std::int64_t>(params.LocalCapacityIops());
  EXPECT_EQ(monitor.UpdateReservation(MakeClientId(0), 10).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(monitor
                  .AdmitClient(MakeClientId(0), 100, /*limit=*/2 * local,
                               qp_b)
                  .ok());
  EXPECT_TRUE(monitor.UpdateReservation(MakeClientId(0), 400).ok());
  EXPECT_EQ(monitor.ReservationOf(MakeClientId(0)).value(), 400);
  // Local capacity still enforced on updates.
  EXPECT_EQ(monitor.UpdateReservation(MakeClientId(0), local + 1).code(),
            StatusCode::kResourceExhausted);
  // A reservation above the client's limit is contradictory.
  EXPECT_EQ(
      monitor.UpdateReservation(MakeClientId(0), 2 * local + 5).code(),
      StatusCode::kInvalidArgument);
}

TEST(Cluster, LeaveWithoutHeadroomParksTheRemainderAcrossRebalances) {
  // The shape `haechi_sim --cluster=2 --leave-at=3` runs into: node 1
  // leaves while node 0 lacks the admission headroom for its splits, so
  // LeaveNode parks the remainder back on node 1. Every later rebalance
  // drains node 1 again, finds no active home for the remainder and must
  // park it back too, instead of losing it.
  ClusterExperimentConfig config = BaseConfig();
  config.data_nodes = 2;
  config.leave_at = Seconds(3);
  config.trace.enabled = true;
  const std::int64_t cap = Capacity(config);
  for (int i = 0; i < 4; ++i) {
    ClusterClientSpec spec;
    spec.reservation = cap / 5;  // 80% of the cluster, 160% of one node
    spec.demand_per_node = {cap / 8, cap / 8};
    config.clients.push_back(spec);
  }
  SingleTenant(config);

  ClusterExperiment exp(std::move(config));
  ClusterExperimentResult r = exp.Run();
  EXPECT_EQ(r.cluster_stats.node_leaves, 1u);
  EXPECT_GT(r.cluster_stats.rebalances, 0u);
  for (std::size_t c = 0; c < r.final_split.size(); ++c) {
    const auto& split = r.final_split[c];
    EXPECT_EQ(std::accumulate(split.begin(), split.end(), std::int64_t{0}),
              cap / 5)
        << "client " << c;
  }
  // The parked remainder stays on the departed node.
  std::int64_t parked = 0;
  for (const auto& split : r.final_split) parked += split[1];
  EXPECT_GT(parked, 0);

  ASSERT_NE(exp.recorder(), nullptr);
  const obs::AuditReport report = obs::AuditTrace(exp.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

}  // namespace
}  // namespace haechi
