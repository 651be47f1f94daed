// Direct unit tests of QosMonitor with a mock engine side: the test owns
// the client end of the control channel and writes report slots through
// the fabric itself, pinning down conversion arithmetic, grant tracking,
// reporting activation, and calibration gating.
#include <gtest/gtest.h>

#include <cstring>

#include "core/monitor.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : fabric_(sim_, MakeParams(), 3),
        server_(fabric_.AddNode("server", rdma::NodeRole::kData)),
        client_(fabric_.AddNode("client")) {
    config_.token_batch = 10;
    monitor_ = std::make_unique<QosMonitor>(sim_, config_, server_,
                                            /*global=*/100'000,
                                            /*local=*/50'000);
  }

  static net::ModelParams MakeParams() {
    net::ModelParams params;
    params.capacity_scale = 0.02;
    params.service_jitter = 0.0;
    return params;
  }

  /// Admits a client and returns its wiring; the test keeps the engine-side
  /// QPs to impersonate the engine.
  QosWiring Admit(std::uint32_t id, std::int64_t reservation,
                  std::int64_t limit = 0) {
    auto& ctrl_cq = client_.CreateCq();
    auto& ctrl_recv = client_.CreateCq();
    auto& srv_cq = server_.CreateCq();
    auto& ctrl_qp = client_.CreateQp(ctrl_cq, ctrl_recv);
    auto& srv_qp = server_.CreateQp(srv_cq, srv_cq);
    fabric_.Connect(ctrl_qp, srv_qp);
    // Swallow the monitor's control messages.
    recv_buffers_.emplace_back(64);
    ctrl_qp.PostRecv(0, std::span<std::byte>(recv_buffers_.back()));
    ctrl_recv.SetNotify([&ctrl_qp, this](const rdma::WorkCompletion& wc) {
      ++ctrl_messages_;
      ctrl_qp.PostRecv(wc.wr_id,
                       std::span<std::byte>(recv_buffers_.back()));
    });
    auto wiring = monitor_->AdmitClient(MakeClientId(id), reservation, limit,
                                        srv_qp);
    EXPECT_TRUE(wiring.ok());
    return wiring.value();
  }

  /// Impersonates an engine: writes a packed report into the slot memory
  /// (directly — the one-sided path itself is covered by engine_test).
  void WriteReport(const QosWiring& wiring, std::uint32_t period,
                   std::uint64_t residual, std::uint64_t completed,
                   std::uint8_t seq = 0) {
    const std::uint64_t packed = PackReport(period, residual, completed, seq);
    std::memcpy(reinterpret_cast<void*>(wiring.report_slot_addr), &packed,
                sizeof(packed));
  }

  std::int64_t PoolWord(const QosWiring& wiring) {
    std::uint64_t raw;
    std::memcpy(&raw, reinterpret_cast<void*>(wiring.global_pool_addr),
                sizeof(raw));
    return static_cast<std::int64_t>(raw);
  }

  void DrainPool(const QosWiring& wiring, std::int64_t tokens) {
    const std::int64_t now = PoolWord(wiring);
    const auto raw = static_cast<std::uint64_t>(now - tokens);
    std::memcpy(reinterpret_cast<void*>(wiring.global_pool_addr), &raw,
                sizeof(raw));
  }

  sim::Simulator sim_;
  rdma::Fabric fabric_;
  rdma::Node& server_;
  rdma::Node& client_;
  QosConfig config_;
  std::unique_ptr<QosMonitor> monitor_;
  std::deque<std::vector<std::byte>> recv_buffers_;
  int ctrl_messages_ = 0;
};

TEST_F(MonitorTest, PeriodStartInitialisesPoolAndSlots) {
  const QosWiring a = Admit(0, 30'000);
  const QosWiring b = Admit(1, 20'000);
  monitor_->Start(0);
  sim_.RunUntil(Millis(1));
  EXPECT_EQ(monitor_->stats().periods, 1u);
  EXPECT_EQ(monitor_->PeriodCapacity(), 100'000);
  EXPECT_EQ(monitor_->InitialPool(), 50'000);
  EXPECT_EQ(PoolWord(a), 50'000);
  EXPECT_EQ(PoolWord(b), 50'000);  // same word
  // Slots are primed with the full reservation for the current period.
  EXPECT_EQ(monitor_->LastResidual(MakeClientId(0)), 30'000u);
  EXPECT_EQ(monitor_->LastCompleted(MakeClientId(0)), 0u);
  // Each client received a PeriodStart message.
  EXPECT_GE(ctrl_messages_, 2);
}

TEST_F(MonitorTest, ReportingActivatesOnlyOnPoolDraw) {
  const QosWiring wiring = Admit(0, 30'000);
  monitor_->Start(0);
  sim_.RunUntil(Millis(10));
  EXPECT_FALSE(monitor_->ReportingActive());
  EXPECT_EQ(monitor_->stats().report_signals, 0u);
  DrainPool(wiring, 10);  // someone took tokens
  sim_.RunUntil(Millis(12));
  EXPECT_TRUE(monitor_->ReportingActive());
  EXPECT_EQ(monitor_->stats().report_signals, 1u);
  // The flag resets at the next period.
  sim_.RunUntil(Seconds(1) + Millis(1));
  EXPECT_FALSE(monitor_->ReportingActive());
}

TEST_F(MonitorTest, ConversionReclaimsSurrenderedTokens) {
  const QosWiring wiring = Admit(0, 40'000);
  monitor_->Start(0);
  sim_.RunUntil(Millis(5));
  DrainPool(wiring, 100);  // trigger reporting
  sim_.RunUntil(Millis(7));
  ASSERT_TRUE(monitor_->ReportingActive());

  // The client reports that it surrendered half its reservation and
  // completed nothing: claims = 20'000.
  WriteReport(wiring, 1, /*residual=*/20'000, /*completed=*/0);
  sim_.RunUntil(Millis(100) + Micros(500));
  // At t=0.1: time budget = 0.9 * 100'000 = 90'000; completion budget =
  // 100'000 - 0; L = 20'000 -> pool ≈ 70'000 (minus the grant-lag window,
  // which saw the 100-token drain).
  EXPECT_NEAR(static_cast<double>(PoolWord(wiring)), 70'000, 300);
  EXPECT_GT(monitor_->stats().conversions, 0u);
}

TEST_F(MonitorTest, ConversionIsTokenConserving) {
  // With honest claims (everything still outstanding), conversion must not
  // mint: pool stays at its initial value even as time passes.
  const QosWiring wiring = Admit(0, 40'000);
  monitor_->Start(0);
  sim_.RunUntil(Millis(5));
  DrainPool(wiring, 1000);
  sim_.RunUntil(Millis(7));
  // Claims: full reservation + the 1000 pool tokens drawn, nothing done.
  WriteReport(wiring, 1, 41'000, 0);
  sim_.RunUntil(Millis(200));
  // Two ceilings apply. Conservation: never above initial pool minus the
  // 1000 already granted. Expiry: at t=0.2 the time budget is 80'000, so
  // pool = 80'000 - 41'000 claims - lag = ~39'000 (capacity that went
  // unused while the client sat on its tokens has expired).
  EXPECT_LE(PoolWord(wiring), 59'000);
  EXPECT_NEAR(static_cast<double>(PoolWord(wiring)), 39'000, 300);
  // And it keeps declining with the time budget, never re-minting.
  sim_.RunUntil(Millis(400));
  EXPECT_NEAR(static_cast<double>(PoolWord(wiring)), 19'000, 300);
}

TEST_F(MonitorTest, StaleReportsFallBackToReservation) {
  const QosWiring wiring = Admit(0, 40'000);
  monitor_->Start(0);
  sim_.RunUntil(Millis(5));
  DrainPool(wiring, 100);
  sim_.RunUntil(Millis(7));
  // A report tagged with the WRONG period (stale in-flight write).
  WriteReport(wiring, 99, /*residual=*/0, /*completed=*/39'000);
  sim_.RunUntil(Millis(100));
  // Conversion must treat the client conservatively (full 40'000
  // outstanding): pool = 90'000 - 40'000 - lag ≈ 50'000, NOT ~90'000.
  EXPECT_LT(PoolWord(wiring), 52'000);
  // And calibration must not see the stale completions.
  sim_.RunUntil(Seconds(1) + Millis(1));
  EXPECT_EQ(monitor_->stats().last_period_completions, 0);
}

TEST_F(MonitorTest, CalibrationFeedsEstimatorOnlyWhenReporting) {
  const QosWiring wiring = Admit(0, 40'000);
  monitor_->Start(0);
  // Period 1 passes without any pool draw: estimator untouched.
  sim_.RunUntil(Seconds(1) + Millis(1));
  EXPECT_EQ(monitor_->estimator().Estimate(), 100'000);
  EXPECT_EQ(monitor_->estimator().WindowFill(), 0u);

  // Period 2: pool drawn, reports flowing, partial consumption.
  DrainPool(wiring, 500);
  sim_.RunUntil(Seconds(1) + Millis(10));
  WriteReport(wiring, 2, 0, 90'000);
  sim_.RunUntil(Seconds(2) + Millis(1));
  EXPECT_EQ(monitor_->estimator().WindowFill(), 1u);
  EXPECT_EQ(monitor_->estimator().Estimate(), 90'000);
}

TEST_F(MonitorTest, UnderuseAlertAfterConsecutivePeriods) {
  config_.underuse_alert_periods = 2;
  monitor_ = std::make_unique<QosMonitor>(sim_, config_, server_, 100'000,
                                          50'000);
  const QosWiring wiring = Admit(0, 20'000);
  ClientId alerted = MakeClientId(999);
  monitor_->SetOverReserveCallback([&](ClientId id) { alerted = id; });
  monitor_->Start(0);
  for (int period = 1; period <= 3; ++period) {
    sim_.RunUntil(Seconds(period - 1) + Millis(5));
    DrainPool(wiring, 10);  // keep reporting active each period
    sim_.RunUntil(Seconds(period - 1) + Millis(10));
    WriteReport(wiring, static_cast<std::uint32_t>(period), 15'000, 5'000);
    sim_.RunUntil(Seconds(period));
  }
  sim_.RunUntil(Seconds(3) + Millis(1));
  EXPECT_EQ(alerted, MakeClientId(0));
  EXPECT_GE(monitor_->stats().over_reserve_hints, 1u);
}

TEST_F(MonitorTest, AdmissionLifecycleThroughMonitor) {
  Admit(0, 50'000);  // exactly C_L
  EXPECT_EQ(monitor_->admission().TotalReserved(), 50'000);
  // Beyond local capacity.
  auto& cq = server_.CreateCq();
  auto& qp = server_.CreateQp(cq, cq);
  auto too_big = monitor_->AdmitClient(MakeClientId(7), 50'001, 0, qp);
  EXPECT_FALSE(too_big.ok());
  // Limit below reservation is contradictory.
  auto contradictory = monitor_->AdmitClient(MakeClientId(8), 10'000,
                                             /*limit=*/5'000, qp);
  EXPECT_EQ(contradictory.status().code(), StatusCode::kInvalidArgument);
  // Release and reuse.
  EXPECT_TRUE(monitor_->ReleaseClient(MakeClientId(0)).ok());
  EXPECT_EQ(monitor_->admission().TotalReserved(), 0);
  EXPECT_EQ(monitor_->ReleaseClient(MakeClientId(0)).code(),
            StatusCode::kNotFound);
}

TEST_F(MonitorTest, DistinctReportSlotsPerClient) {
  const QosWiring a = Admit(0, 10'000);
  const QosWiring b = Admit(1, 10'000);
  EXPECT_EQ(a.global_pool_addr, b.global_pool_addr);
  EXPECT_NE(a.report_slot_addr, b.report_slot_addr);
  monitor_->Start(0);
  sim_.RunUntil(Millis(2));
  WriteReport(a, 1, 1111, 2222);
  WriteReport(b, 1, 3333, 4444);
  EXPECT_EQ(monitor_->LastResidual(MakeClientId(0)), 1111u);
  EXPECT_EQ(monitor_->LastCompleted(MakeClientId(1)), 4444u);
}

// ---------------------------------------------------------------------------
// Report lease: client-failure detection and reclamation.

TEST_F(MonitorTest, LeaseExpiryReclaimsSilentClientAndKeepsReportingOne) {
  config_.report_lease_intervals = 4;
  monitor_ = std::make_unique<QosMonitor>(sim_, config_, server_, 100'000,
                                          50'000);
  const QosWiring alive = Admit(0, 30'000);
  Admit(1, 20'000);
  ClientId dead = MakeClientId(999);
  monitor_->SetClientDeadCallback([&](ClientId id) { dead = id; });
  monitor_->Start(0);

  sim_.RunUntil(Millis(1) + Micros(100));
  DrainPool(alive, 10);  // activates reporting at the 2 ms check
  // Client 0 keeps reporting an unchanged payload but a fresh seq — the
  // lease must read that as alive (idle != dead). Client 1 stays silent.
  for (int m = 2; m <= 8; ++m) {
    sim_.RunUntil(Millis(m) - Micros(500));
    WriteReport(alive, 1, 30'000, 0, static_cast<std::uint8_t>(m));
  }
  sim_.RunUntil(Millis(10));

  // Client 1 missed k = 4 consecutive checks: declared dead, its admission
  // released, its primed residual (the full reservation) reclaimed.
  EXPECT_EQ(monitor_->stats().lease_expirations, 1u);
  EXPECT_EQ(dead, MakeClientId(1));
  EXPECT_FALSE(monitor_->admission().IsAdmitted(MakeClientId(1)));
  EXPECT_TRUE(monitor_->admission().IsAdmitted(MakeClientId(0)));
  EXPECT_EQ(monitor_->admission().TotalReserved(), 30'000);
  EXPECT_EQ(monitor_->stats().reclaimed_tokens, 20'000);
  // At half-lease (2 misses) the monitor re-sent a ReportRequest before
  // giving up on the client.
  EXPECT_GE(monitor_->stats().report_request_resends, 1u);
  // Work conservation: the death triggered an immediate conversion, so the
  // reclaimed 20'000 showed up in the global pool (time budget ~99'500
  // minus client 0's 30'000 claims — well above the 50'000 initial pool).
  EXPECT_GT(PoolWord(alive), 60'000);
}

TEST_F(MonitorTest, LeaseIsInertUntilReportingActivates) {
  config_.report_lease_intervals = 2;
  monitor_ = std::make_unique<QosMonitor>(sim_, config_, server_, 100'000,
                                          50'000);
  Admit(0, 30'000);
  monitor_->Start(0);
  // No pool draw -> reporting never signalled -> silence is not a crime.
  sim_.RunUntil(Millis(50));
  EXPECT_EQ(monitor_->stats().lease_expirations, 0u);
  EXPECT_TRUE(monitor_->admission().IsAdmitted(MakeClientId(0)));
}

TEST_F(MonitorTest, ReadmissionReplacesStaleIncarnation) {
  const QosWiring first = Admit(0, 30'000);
  EXPECT_EQ(monitor_->admission().TotalReserved(), 30'000);
  // The same client id re-admits after a restart: the stale admission is
  // released first, so the new reservation replaces (not stacks on) it.
  const QosWiring second = Admit(0, 25'000);
  EXPECT_EQ(monitor_->stats().readmissions, 1u);
  EXPECT_EQ(monitor_->admission().AdmittedCount(), 1u);
  EXPECT_EQ(monitor_->admission().TotalReserved(), 25'000);
  // The retired slot is quarantined until the next period boundary, so the
  // new incarnation writes elsewhere (an in-flight stale WRITE cannot
  // corrupt it).
  EXPECT_NE(first.report_slot_addr, second.report_slot_addr);
  EXPECT_EQ(first.global_pool_addr, second.global_pool_addr);
}

TEST_F(MonitorTest, InvalidReadmissionLeavesTheLiveAdmissionIntact) {
  obs::Recorder recorder(sim_);
  obs::ScopedRecorder scoped(&recorder);
  Admit(0, 30'000);
  auto& cq = server_.CreateCq();
  auto& qp = server_.CreateQp(cq, cq);
  // A malformed re-admission under a live id is rejected before anything
  // is released: the live incarnation keeps its reservation and slot.
  const auto bad = monitor_->AdmitClient(MakeClientId(0), 100,
                                         /*limit=*/50, qp);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const auto reservation = monitor_->ReservationOf(MakeClientId(0));
  ASSERT_TRUE(reservation.ok());
  EXPECT_EQ(reservation.value(), 30'000);
  EXPECT_EQ(monitor_->admission().TotalReserved(), 30'000);
  EXPECT_EQ(monitor_->stats().readmissions, 0u);
  for (const obs::TraceEvent& e :
       recorder.ActorEvents(obs::ActorKind::kMonitor, 0)) {
    EXPECT_NE(e.type, obs::EventType::kRelease);
  }
}

TEST_F(MonitorTest, SlotsRecycleAcrossPeriodBoundaries) {
  // 120 admit/release cycles against 64 physical slots: retired slots are
  // quarantined for one period, then recycled — churn must never exhaust
  // the slot table as long as boundaries keep passing.
  monitor_->Start(0);
  std::uint32_t id = 0;
  for (int period = 0; period < 6; ++period) {
    for (int i = 0; i < 20; ++i) {
      Admit(id, 1'000);
      EXPECT_TRUE(monitor_->ReleaseClient(MakeClientId(id)).ok());
      ++id;
    }
    sim_.RunUntil(Seconds(period + 1) + Millis(1));
  }
  EXPECT_EQ(monitor_->admission().AdmittedCount(), 0u);
}

}  // namespace
}  // namespace haechi::core
