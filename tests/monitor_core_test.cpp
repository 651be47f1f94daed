// MonitorCore driven through a scripted pool port that lands client draws
// between the monitor's per-shard pool operations. Every interleaving of a
// boundary exchange sweep, a conversion CAS loop, a rebalance and a
// lend/absorb pair with client FAAs is enumerated here, deterministically,
// instead of being left to timing-dependent stress runs; each one must
// keep the period ledger exact:
//   initial_pool + minted + absorbed - granted - lent == end_pool
// with `granted` equal to the tokens the scripted clients actually drew.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/monitor_core.hpp"

namespace haechi::core {
namespace {

using obs::EventType;

/// Draws everything the targeted shard holds (nothing if it is empty).
constexpr std::int64_t kAll = 0;

/// One scripted client FAA: `tokens` drawn from the shard the `op`-th pool
/// operation (counted from Arm) targets, landing just before that
/// operation. An `op` past the last operation lands after it (Flush).
struct Draw {
  std::size_t op = 0;
  std::int64_t tokens = kAll;
};

class ScriptedPort final : public MonitorPort {
 public:
  explicit ScriptedPort(std::size_t shards)
      : pool_(shards, 0), pending_(shards, 0), installed_(shards, 0),
        cas_draws_(shards, 0) {}

  void Arm(std::vector<Draw> draws) {
    draws_ = std::move(draws);
    next_ = 0;
    ops_ = 0;
  }
  /// Lands the scripted draws scheduled past the last operation.
  void Flush() {
    while (next_ < draws_.size()) ApplyDraw(last_shard_, draws_[next_++]);
  }
  /// Makes the next `n` CAS attempts on `shard` fail: a one-token client
  /// draw lands between the monitor's witness and each of them.
  void FailCas(std::size_t shard, int n) { cas_draws_[shard] = n; }

  /// Client draws closed into ledger periods by boundary exchanges since
  /// the last call.
  std::int64_t TakeClosed() { return std::exchange(closed_, 0); }

  std::int64_t Load(std::size_t shard) override {
    BeforeOp(shard);
    return pool_[shard];
  }
  std::int64_t Exchange(std::size_t shard, std::int64_t value) override {
    BeforeOp(shard);
    closed_ += std::exchange(pending_[shard], 0);
    return std::exchange(pool_[shard], value);
  }
  bool Cas(std::size_t shard, std::int64_t& expected,
           std::int64_t desired) override {
    BeforeOp(shard);
    if (cas_draws_[shard] > 0) {
      --cas_draws_[shard];
      ClientDraw(shard, 1);
    }
    if (pool_[shard] != expected) {
      expected = pool_[shard];
      return false;
    }
    pool_[shard] = desired;
    installed_[shard] = desired;
    return true;
  }
  std::int64_t Add(std::size_t shard, std::int64_t delta) override {
    BeforeOp(shard);
    return std::exchange(pool_[shard], pool_[shard] + delta);
  }
  std::uint64_t ReadSlot(std::size_t slot) override { return slots_[slot]; }
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override {
    slots_[slot] = packed;
  }
  void Send(std::size_t /*slot*/, const MonitorMessage& /*msg*/) override {}
  SimTime Now() override { return now; }
  void Emit(obs::ActorKind /*kind*/, std::uint32_t /*actor*/,
            EventType type, std::uint32_t /*period*/, std::int64_t /*a*/,
            std::int64_t b, std::int64_t /*c*/) override {
    if (type != EventType::kTokenConvert) return;
    // A conversion CASes every shard and emits right after, so the last
    // value installed per shard is exactly what it put in the pool.
    std::int64_t sum = 0;
    for (const std::int64_t v : installed_) sum += v;
    ++conversions;
    if (b != sum) ++convert_mismatches;
  }

  SimTime now = 0;
  int conversions = 0;
  int convert_mismatches = 0;

 private:
  void BeforeOp(std::size_t shard) {
    while (next_ < draws_.size() && draws_[next_].op == ops_) {
      ApplyDraw(shard, draws_[next_++]);
    }
    ++ops_;
    last_shard_ = shard;
  }
  void ApplyDraw(std::size_t shard, const Draw& d) {
    ClientDraw(shard, d.tokens == kAll
                          ? std::max<std::int64_t>(pool_[shard], 0)
                          : d.tokens);
  }
  void ClientDraw(std::size_t shard, std::int64_t tokens) {
    pool_[shard] -= tokens;
    pending_[shard] += tokens;
  }

  std::vector<std::int64_t> pool_;
  std::vector<std::int64_t> pending_;  // draws since the shard's exchange
  std::vector<std::int64_t> installed_;
  std::vector<int> cas_draws_;
  std::array<std::uint64_t, MonitorCore::kMaxClients> slots_{};
  std::vector<Draw> draws_;
  std::size_t next_ = 0;
  std::size_t ops_ = 0;
  std::size_t last_shard_ = 0;
  std::int64_t closed_ = 0;
};

/// A monitor with 4 clients reserving 10'000 of 100'000 tokens each, in
/// period 1 (initial pool 60'000) with reporting active after one check.
struct Rig {
  explicit Rig(std::size_t shards)
      : port(shards), core(port, QosConfig{}, 100'000, 50'000, shards) {
    for (std::uint32_t id = 0; id < 4; ++id) {
      EXPECT_TRUE(core.AdmitClient(MakeClientId(id), 10'000, 0).ok());
    }
    core.SetRunning(true);
    core.StartPeriod();
    port.TakeClosed();
    // S2: a client draw before the first check activates reporting (and
    // with it conversion).
    port.now = Millis(100);
    port.Arm({{0, 100}});
    core.CheckTick();
    port.Flush();
    EXPECT_TRUE(core.ReportingActive());
  }

  /// Runs a period boundary with no draws in flight.
  void Boundary() {
    port.now += Seconds(1);
    port.Arm({});
    core.StartPeriod();
  }

  /// The period closed by the last boundary balances, and its grants are
  /// exactly the client draws that landed in it.
  void ExpectClosedPeriodBalances() {
    const auto& ledger = core.ledger();
    ASSERT_GE(ledger.size(), 2u);
    const MonitorCore::PeriodLedger& p = ledger[ledger.size() - 2];
    EXPECT_EQ(p.initial_pool + p.minted + p.absorbed - p.granted - p.lent,
              p.end_pool);
    EXPECT_EQ(p.granted, port.TakeClosed());
    EXPECT_EQ(port.convert_mismatches, 0);
  }

  ScriptedPort port;
  MonitorCore core;
};

constexpr std::size_t kShardCounts[] = {1, 4};

TEST(MonitorCoreInterleavings, BoundaryExchangeSweep) {
  for (const std::size_t shards : kShardCounts) {
    // A draw lands before each exchange, after the last one, or not at all,
    // in every combination.
    for (unsigned mask = 0; mask < (1u << (shards + 1)); ++mask) {
      SCOPED_TRACE(testing::Message() << shards << " shards, mask " << mask);
      Rig rig(shards);
      std::vector<Draw> draws;
      for (std::size_t op = 0; op <= shards; ++op) {
        if ((mask >> op) & 1u) draws.push_back({op, 7});
      }
      rig.port.now = Seconds(1);
      rig.port.Arm(draws);
      rig.core.StartPeriod();
      rig.port.Flush();
      // Period 1 owns the draws that beat their shard's exchange ...
      rig.ExpectClosedPeriodBalances();
      // ... period 2 the ones that landed after it.
      rig.Boundary();
      rig.ExpectClosedPeriodBalances();
    }
  }
}

TEST(MonitorCoreInterleavings, ConversionCasRetries) {
  for (const std::size_t shards : kShardCounts) {
    std::size_t schedules = 1;
    for (std::size_t s = 0; s < shards; ++s) schedules *= 4;
    for (std::size_t schedule = 0; schedule < schedules; ++schedule) {
      SCOPED_TRACE(testing::Message()
                   << shards << " shards, schedule " << schedule);
      Rig rig(shards);
      // 0-3 failed CAS attempts per shard, in every combination.
      std::uint64_t expected_retries = 0;
      std::size_t digits = schedule;
      for (std::size_t s = 0; s < shards; ++s, digits /= 4) {
        rig.port.FailCas(s, static_cast<int>(digits % 4));
        expected_retries += digits % 4;
      }
      const std::uint64_t retries_before =
          rig.core.runtime_stats().convert_cas_retries;
      const int conversions_before = rig.port.conversions;
      rig.port.now = Millis(101);
      rig.core.CheckTick();
      EXPECT_EQ(rig.port.conversions, conversions_before + 1);
      EXPECT_EQ(rig.core.runtime_stats().convert_cas_retries - retries_before,
                expected_retries);
      rig.Boundary();
      rig.ExpectClosedPeriodBalances();
    }
  }
}

TEST(MonitorCoreInterleavings, RebalanceDonorDrainedUnderIt) {
  for (const std::size_t shards : kShardCounts) {
    int drained = 0;
    int moved = 0;
    // The sample loads come first (ops 0..shards-1); the rebalance and the
    // conversion follow. One extra draw lands before each later operation.
    for (std::size_t op = shards; op <= shards + 3 + 2 * shards; ++op) {
      for (const std::int64_t tokens : {std::int64_t{1'000}, kAll,
                                        std::int64_t{20'000}}) {
        SCOPED_TRACE(testing::Message() << shards << " shards, draw of "
                                        << tokens << " before op " << op);
        Rig rig(shards);
        const std::uint64_t rebalances = rig.core.stats().rebalances;
        // Shard 0 is drained hard before the sample, so the shards are
        // lopsided by more than two fetch batches when the check looks.
        rig.port.now = Millis(101);
        rig.port.Arm({{0, 6'000}, {op, tokens}});
        rig.core.CheckTick();
        rig.port.Flush();
        if (shards > 1) {
          (rig.core.stats().rebalances == rebalances ? drained : moved) += 1;
        }
        rig.Boundary();
        rig.ExpectClosedPeriodBalances();
      }
    }
    if (shards > 1) {
      // Both the clean move and the donor-drained fold were exercised.
      EXPECT_GT(drained, 0);
      EXPECT_GT(moved, 0);
    }
  }
}

TEST(MonitorCoreInterleavings, LendAndAbsorbBetweenChecks) {
  for (const std::size_t shards : kShardCounts) {
    // Lend touches each shard with a load and a CAS, absorb with an add.
    for (std::size_t op = 0; op <= 3 * shards; ++op) {
      for (const std::int64_t tokens : {std::int64_t{7}, kAll}) {
        SCOPED_TRACE(testing::Message() << shards << " shards, draw of "
                                        << tokens << " before op " << op);
        Rig rig(shards);
        rig.port.Arm({{op, tokens}});
        const std::int64_t lent = rig.core.LendTokens(20'000, 1);
        const std::int64_t absorbed = rig.core.AbsorbTokens(5'000, 1);
        rig.port.Flush();
        // A shard drained before its load or CAS has nothing to lend.
        EXPECT_GE(lent, 0);
        EXPECT_LE(lent, 20'000);
        EXPECT_EQ(absorbed, 5'000);
        rig.port.now = Millis(101);
        rig.core.CheckTick();
        rig.Boundary();
        rig.ExpectClosedPeriodBalances();
        const auto& ledger = rig.core.ledger();
        EXPECT_EQ(ledger[ledger.size() - 2].lent, lent);
        EXPECT_EQ(ledger[ledger.size() - 2].absorbed, absorbed);
      }
    }
  }
}

}  // namespace
}  // namespace haechi::core
