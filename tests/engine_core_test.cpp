// EngineCore driven through a scripted port: the test owns the clock and
// plays the runtime — it decides when ticks run, when fetches land and
// which period start arrives next — so every protocol step the two engine
// runtimes share is pinned down without a fabric or a thread: the degraded
// re-sync discount, the decay floor, synthetic boundaries, the fetch gates,
// fetch results across a period roll or a degraded entry, the backoff
// ladder and the claims a report carries.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine_core.hpp"

namespace haechi::core {
namespace {

using obs::EventType;

struct Event {
  EventType type;
  std::uint32_t period;
  std::int64_t a, b, c;
};

class ScriptedPort final : public EnginePort {
 public:
  SimTime Now() override { return now; }
  void Emit(EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override {
    events.push_back({type, period, a, b, c});
  }

  [[nodiscard]] std::vector<Event> Of(EventType type) const {
    std::vector<Event> out;
    for (const Event& e : events) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  SimTime now = 0;
  std::vector<Event> events;
};

QosConfig TestConfig() {
  QosConfig config;
  config.period = Millis(100);
  config.token_tick = Millis(1);
  config.token_batch = 10;
  config.faa_end_guard = Millis(2);
  config.pool_retry_interval = Millis(1);
  config.faa_retry_backoff = Millis(1);
  config.faa_retry_backoff_max = Millis(8);
  config.degraded_grace_permille = 1500;
  config.degraded_max_periods = 3;
  config.recovery_backlog_periods = 1;
  return config;
}

PeriodStartMsg Start(std::uint32_t period, std::int64_t reservation,
                     std::int64_t limit = 0) {
  PeriodStartMsg msg;
  msg.period = period;
  msg.reservation_tokens = reservation;
  msg.limit = limit;
  return msg;
}

class EngineCoreTest : public ::testing::Test {
 protected:
  EngineCoreTest(QosConfig config = TestConfig())
      : config_(config), core_(port_, MakeClientId(7), config_) {}

  /// Runs token ticks until `until`. Like a runtime re-driving issue, each
  /// tick whose degraded check issued a synthetic boundary takes up to
  /// `take_on_rearm` tokens before the decay step. Returns those ticks.
  int TickUntil(SimTime until, std::int64_t take_on_rearm = 0) {
    int rearmed = 0;
    while (port_.now + config_.token_tick <= until) {
      port_.now += config_.token_tick;
      if (core_.CheckDegraded()) {
        ++rearmed;
        core_.TakeTokens(core_.Room(take_on_rearm));
      }
      core_.Decay();
    }
    return rearmed;
  }

  QosConfig config_;
  ScriptedPort port_;
  EngineCore core_;
};

TEST_F(EngineCoreTest, ResyncDiscountsIOsStillOutstandingFromTheDegradedSpell) {
  core_.PeriodStart(Start(1, 10), 0);
  EXPECT_EQ(core_.TakeTokens(10).granted, 10);
  core_.Complete(4);
  // Silence past the grace window: the first synthetic boundary re-arms the
  // last split, and the engine issues it against six I/Os still in flight.
  EXPECT_EQ(TickUntil(Millis(150), /*take_on_rearm=*/10), 1);
  ASSERT_TRUE(core_.Degraded());
  ASSERT_EQ(core_.BackendOutstanding(), 16);
  core_.Complete(10);
  ASSERT_EQ(core_.BackendOutstanding(), 6);
  // The monitor returns: the fresh 10 replaces the synthetic split, so the
  // 6 still outstanding come off it, and the backlog beyond one period's
  // reservation (25 queued, keep 10) is shed.
  EXPECT_EQ(core_.PeriodStart(Start(2, 10), 25), 15u);
  EXPECT_FALSE(core_.Degraded());
  EXPECT_EQ(core_.ReservationTokens(), 4);
  EXPECT_DOUBLE_EQ(core_.DecayBound(), 4.0);
  EXPECT_EQ(core_.stats().shed_on_recovery, 15u);
  const auto exits = port_.Of(EventType::kDegradedExit);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].a, 1);   // synthetic boundaries taken
  EXPECT_EQ(exits[0].b, 15);  // requests shed

  // More in flight than the grant: the re-synced reservation floors at 0.
  EXPECT_EQ(TickUntil(Millis(300), /*take_on_rearm=*/10), 1);
  ASSERT_TRUE(core_.Degraded());
  ASSERT_EQ(core_.BackendOutstanding(), 16);
  EXPECT_EQ(core_.PeriodStart(Start(3, 10), 0), 0u);
  EXPECT_EQ(core_.ReservationTokens(), 0);
}

TEST_F(EngineCoreTest, DecayFollowsTheBoundAndFloorsAtZero) {
  core_.PeriodStart(Start(1, 250), 0);
  // 2.5 tokens per 1 ms tick: after k ticks the reservation is
  // floor(250 - 2.5k), and it never goes below zero.
  for (int k = 1; k <= 150; ++k) {
    port_.now += config_.token_tick;
    core_.Decay();
    const double bound = std::max(0.0, 250.0 - 2.5 * k);
    EXPECT_EQ(core_.ReservationTokens(), static_cast<std::int64_t>(bound))
        << "tick " << k;
    EXPECT_GE(core_.DecayBound(), 0.0);
  }
  // Demand keeps what it took: taken tokens are not surrendered, and the
  // bound only caps what is left.
  core_.PeriodStart(Start(2, 100), 0);
  EXPECT_EQ(core_.TakeTokens(90).granted, 90);
  for (int k = 0; k < 95; ++k) core_.Decay();
  EXPECT_EQ(core_.ReservationTokens(), 5);
  core_.Decay();
  EXPECT_EQ(core_.ReservationTokens(), 4);
  std::int64_t surrendered = 0;
  for (const Event& e : port_.Of(EventType::kTokenDecay)) {
    if (e.period == 2) surrendered += e.a;
  }
  EXPECT_EQ(surrendered, 6);
}

TEST_F(EngineCoreTest, DegradedModeIsBoundedAndExitsOnTheNextPeriodStart) {
  core_.PeriodStart(Start(1, 8), 0);
  // Healthy: a full period of ticks never trips the 1.5-period grace.
  EXPECT_EQ(TickUntil(Millis(149)), 0);
  EXPECT_FALSE(core_.Degraded());
  // At 150 ms the engine degrades and issues its first synthetic boundary;
  // later ones follow the real cadence and stop at degraded_max_periods.
  EXPECT_EQ(TickUntil(Millis(150)), 1);
  EXPECT_TRUE(core_.Degraded());
  EXPECT_FALSE(core_.MayFetch());  // no pool fetch while degraded
  EXPECT_EQ(TickUntil(Seconds(2)), 2);
  EXPECT_EQ(core_.stats().degraded_entries, 1u);
  EXPECT_EQ(core_.stats().degraded_periods, 3u);
  const auto boundaries = port_.Of(EventType::kDegradedPeriod);
  ASSERT_EQ(boundaries.size(), 3u);
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    EXPECT_EQ(boundaries[i].period, 1u);  // the period never advances
    EXPECT_EQ(boundaries[i].a, 8);        // the last provisioned split
    EXPECT_EQ(boundaries[i].b, static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(port_.Of(EventType::kDegradedEnter).size(), 1u);
  EXPECT_EQ(core_.CurrentPeriod(), 1u);

  core_.PeriodStart(Start(2, 8), 0);
  EXPECT_FALSE(core_.Degraded());
  EXPECT_EQ(core_.CurrentPeriod(), 2u);
  EXPECT_EQ(core_.ReservationTokens(), 8);
  ASSERT_EQ(port_.Of(EventType::kDegradedExit).size(), 1u);
  EXPECT_EQ(port_.Of(EventType::kDegradedExit)[0].a, 3);
}

TEST_F(EngineCoreTest, FetchesAreGatedByTheEndGuardAndThePoolRetry) {
  core_.PeriodStart(Start(1, 0), 0);
  port_.now = Millis(97);
  EXPECT_TRUE(core_.MayFetch());
  port_.now = Millis(98);  // within faa_end_guard of the period end
  EXPECT_FALSE(core_.MayFetch());

  core_.PeriodStart(Start(2, 0), 0);  // period 2 starts at 98 ms
  port_.now = Millis(100);
  const std::uint32_t at = core_.FetchPosted(0);
  EXPECT_EQ(core_.FetchDone(at, 0, /*before=*/0, /*has_demand=*/true), 0);
  ASSERT_EQ(port_.Of(EventType::kPoolEmpty).size(), 1u);
  core_.ArmPoolRetry();
  EXPECT_FALSE(core_.MayFetch());
  port_.now = Millis(101) - 1;
  EXPECT_FALSE(core_.MayFetch());
  port_.now = Millis(101);
  EXPECT_TRUE(core_.MayFetch());
  // A period start forgives the retry wait.
  core_.ArmPoolRetry();
  core_.PeriodStart(Start(3, 0), 0);
  EXPECT_TRUE(core_.MayFetch());
}

TEST_F(EngineCoreTest, FetchResultsAreClampedAndDiscardedAcrossRollsAndOutages) {
  core_.PeriodStart(Start(1, 0), 0);
  // Credit up to the posted delta; an overdrawn word yields nothing.
  EXPECT_EQ(core_.FetchDone(core_.FetchPosted(0), 0, 1000, true), 10);
  EXPECT_EQ(core_.FetchDone(core_.FetchPosted(0), 0, 3, true), 3);
  EXPECT_EQ(core_.FetchDone(core_.FetchPosted(0), 0, -5, false), 0);
  EXPECT_EQ(core_.PoolTokens(), 13);
  EXPECT_TRUE(port_.Of(EventType::kPoolEmpty).empty());  // no demand

  // The period rolls while a fetch runs: the new period replaced every
  // leftover, and the late tokens belong to the dead period.
  const std::uint32_t before_roll = core_.FetchPosted(0);
  core_.PeriodStart(Start(2, 0), 0);
  EXPECT_EQ(core_.FetchDone(before_roll, 0, 500, true),
            EngineCore::kDiscarded);
  EXPECT_EQ(core_.PoolTokens(), 0);

  // The engine goes degraded while a fetch runs: the pool is the silent
  // monitor's, so the tokens are discarded too.
  port_.now = Millis(10);
  const std::uint32_t before_outage = core_.FetchPosted(0);
  TickUntil(Millis(160));
  ASSERT_TRUE(core_.Degraded());
  EXPECT_EQ(core_.FetchDone(before_outage, 0, 500, true),
            EngineCore::kDiscarded);
  EXPECT_EQ(core_.PoolTokens(), 0);
  EXPECT_EQ(core_.stats().tokens_from_pool, 0);

  const auto discards = port_.Of(EventType::kTokenDiscard);
  ASSERT_EQ(discards.size(), 2u);
  EXPECT_EQ(discards[0].period, 1u);
  EXPECT_EQ(discards[0].a, 500);
  EXPECT_EQ(discards[0].c, 10);
  EXPECT_EQ(discards[1].period, 2u);
  for (const Event& e : port_.Of(EventType::kTokenFetchDone)) {
    EXPECT_EQ(e.c, 10);  // every result carries the delta it posted
  }
}

TEST_F(EngineCoreTest, FailureBackoffDoublesToItsCeilingAndSignalsOnce) {
  core_.PeriodStart(Start(1, 0), 0);
  std::vector<SimDuration> delays;
  for (int i = 0; i < 6; ++i) {
    const auto delay = core_.FetchFailed();
    ASSERT_TRUE(delay.has_value());
    delays.push_back(*delay);
    // A second failure while the retry is armed schedules nothing.
    EXPECT_FALSE(core_.FetchFailed().has_value());
    EXPECT_TRUE(core_.FaaRetryDue(1));
  }
  EXPECT_EQ(delays, (std::vector<SimDuration>{Millis(1), Millis(2), Millis(4),
                                               Millis(8), Millis(8),
                                               Millis(8)}));
  EXPECT_EQ(core_.stats().faa_failures, 12u);
  EXPECT_EQ(core_.stats().faa_retries, 6u);
  ASSERT_EQ(port_.Of(EventType::kFaaExhausted).size(), 1u);
  EXPECT_EQ(port_.Of(EventType::kFaaExhausted)[0].a, Millis(8));

  // A successful fetch resets the ladder.
  core_.FetchDone(core_.FetchPosted(0), 0, 100, true);
  EXPECT_EQ(core_.FetchFailed(), Millis(1));
  // A retry armed in an earlier period does not re-drive the new one.
  core_.PeriodStart(Start(2, 0), 0);
  EXPECT_FALSE(core_.FaaRetryDue(1));
  // The new period may signal exhaustion once more.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(core_.FetchFailed().has_value());
    core_.FaaRetryDue(2);
  }
  EXPECT_EQ(port_.Of(EventType::kFaaExhausted).size(), 2u);
}

TEST_F(EngineCoreTest, ReportsClaimReservationPoolTokensAndOutstandingIOs) {
  core_.PeriodStart(Start(1, 20), 0);
  EXPECT_EQ(core_.TakeTokens(5).from_reservation, 5);
  EXPECT_EQ(core_.FetchDone(core_.FetchPosted(0), 0, 100, true), 10);
  const EngineCore::Take take = core_.TakeTokens(18);
  EXPECT_EQ(take.granted, 18);
  EXPECT_EQ(take.from_reservation, 15);
  core_.Complete(4);
  // Claims: 0 reservation + 7 pool tokens + 19 in flight.
  const std::uint64_t packed = core_.NextReport();
  EXPECT_EQ(ReportPeriod(packed), 1u);
  EXPECT_EQ(ReportResidual(packed), 26u);
  EXPECT_EQ(ReportCompleted(packed), 4u);
  core_.ReportPosted(packed);
  const auto writes = port_.Of(EventType::kReportWrite);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].a, 26);
  EXPECT_EQ(writes[0].b, 4);
  EXPECT_EQ(writes[0].c, 1);
  // Consecutive words differ even when nothing moved (lease liveness).
  EXPECT_NE(core_.NextReport(), core_.NextReport());
}

TEST_F(EngineCoreTest, RoomAppliesTheLimitAndTheOutstandingCap) {
  core_.PeriodStart(Start(1, 100, /*limit=*/12), 0);
  EXPECT_EQ(core_.Room(64), 12);
  EXPECT_EQ(core_.TakeTokens(12).granted, 12);
  EXPECT_EQ(core_.Room(64), 0);
  EXPECT_EQ(core_.stats().limit_throttle_events, 1u);
  core_.PeriodStart(Start(2, 100), 0);
  EXPECT_EQ(core_.Room(64), 64);
}

TEST_F(EngineCoreTest, StopIsTerminal) {
  core_.PeriodStart(Start(1, 10), 0);
  EXPECT_TRUE(core_.ReportRequest());
  EXPECT_FALSE(core_.ReportRequest());  // duplicate: cadence already runs
  EXPECT_TRUE(core_.Stop());
  EXPECT_FALSE(core_.Stop());
  EXPECT_FALSE(core_.Reporting());
  EXPECT_FALSE(core_.ReportRequest());
  core_.PeriodStart(Start(2, 10), 0);
  EXPECT_FALSE(core_.Started());
  EXPECT_EQ(core_.CurrentPeriod(), 1u);
  EXPECT_EQ(port_.Of(EventType::kEngineStop).size(), 1u);
}

class CappedEngineCoreTest : public EngineCoreTest {
 protected:
  static QosConfig Capped() {
    QosConfig config = TestConfig();
    config.max_backend_outstanding = 5;
    config.fetch_batch = 4;
    return config;
  }
  CappedEngineCoreTest() : EngineCoreTest(Capped()) {}
};

TEST_F(CappedEngineCoreTest, OutstandingCapAndFetchBatch) {
  EXPECT_EQ(core_.FetchDelta(), 40);
  core_.PeriodStart(Start(1, 100), 0);
  // One fetch credits up to the whole chain, token_batch * fetch_batch.
  EXPECT_EQ(core_.FetchDone(core_.FetchPosted(0), 0, 1000, true), 40);
  EXPECT_EQ(port_.Of(EventType::kTokenFetch)[0].a, 40);
  EXPECT_EQ(core_.TakeTokens(core_.Room(64)).granted, 5);
  EXPECT_EQ(core_.Room(64), 0);
  core_.Complete(2);
  EXPECT_EQ(core_.Room(64), 2);
  EXPECT_EQ(core_.stats().limit_throttle_events, 0u);
}

}  // namespace
}  // namespace haechi::core
