#include "cluster/coordinator.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi::cluster {

ClusterCoordinator::ClusterCoordinator(sim::Simulator& sim,
                                       const Config& config,
                                       std::vector<core::QosMonitor*> monitors)
    : sim_(sim),
      config_(config),
      monitors_(std::move(monitors)),
      directory_(config.tenant_capacity),
      ledger_(monitors_.size(), config.borrow),
      active_(monitors_.size(), true) {
  HAECHI_EXPECTS(!monitors_.empty());
  HAECHI_EXPECTS(config.ewma > 0.0 && config.ewma <= 1.0);
  HAECHI_EXPECTS(config.min_share >= 0.0 &&
                 config.min_share * static_cast<double>(monitors_.size()) <
                     1.0);
  HAECHI_EXPECTS(config.interval > config.lead);
  HAECHI_EXPECTS(config.borrow_tick > 0);
  HAECHI_EXPECTS(config.repay_lag > 0 && config.repay_lag < config.interval);
  HAECHI_EXPECTS(config.dry_watermark >= 0 && config.lender_floor >= 0);
  rebalance_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.interval, [this] { Rebalance(); });
  borrow_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.borrow_tick, [this] { BorrowTick(); });
  settle_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.interval, [this] { SettleLoans(); });
  for (std::size_t d = 0; d < monitors_.size(); ++d) {
    // Distinct trace actors keep the per-actor event streams (and their
    // dense seq counters) disjoint across the data nodes.
    monitors_[d]->SetTraceActor(static_cast<std::uint32_t>(d));
    // One node's report lease declaring a client dead purges it
    // cluster-wide: its reservation shards on the other nodes are
    // unreachable capacity the moment the client is gone.
    monitors_[d]->SetClientDeadCallback(
        [this](ClientId client) { OnClientDead(client); });
  }
}

Status ClusterCoordinator::AddTenant(TenantId tenant, std::int64_t reservation,
                                     std::int64_t limit) {
  return directory_.AddTenant(tenant, reservation, limit);
}

void ClusterCoordinator::OnClientDead(ClientId client) {
  const auto it =
      std::find_if(clients_.begin(), clients_.end(),
                   [&](const ClientState& c) { return c.id == client; });
  if (it == clients_.end()) return;  // unknown or already purged
  for (core::QosMonitor* monitor : monitors_) {
    // The detecting node already released the client; other nodes may have
    // raced their own lease expiry. Both make NotFound expected here.
    const Status s = monitor->ReleaseClient(client);
    HAECHI_ASSERT(s.ok() || s.code() == StatusCode::kNotFound);
  }
  const Status released = directory_.ReleaseClient(client);
  HAECHI_ASSERT(released.ok());
  clients_.erase(it);
  ++stats_.dead_clients;
  HAECHI_LOG_WARN("cluster: purged dead client %u from %zu nodes",
                  Raw(client), monitors_.size());
}

Result<std::vector<core::QosWiring>> ClusterCoordinator::AdmitClient(
    TenantId tenant, ClientId client, std::int64_t reservation,
    std::int64_t limit, const std::vector<rdma::QueuePair*>& ctrl_qps) {
  if (ctrl_qps.size() != monitors_.size()) {
    return ErrInvalidArgument("need one control QP per data node");
  }
  if (Find(client) != nullptr) {
    return ErrFailedPrecondition("client already admitted to the cluster");
  }
  // Tenant envelope first: a client that does not fit its tenant never
  // touches the per-node admission controllers.
  const Status member = directory_.AdmitClient(tenant, client, reservation,
                                               limit);
  if (!member.ok()) return member;

  // Uniform split over the *active* nodes; an inactive node (scripted to
  // join later) is admitted with a zero share so its engine is wired but
  // carries no reservation until a post-join rebalance moves some there.
  const auto nodes = monitors_.size();
  const auto active_shares =
      workload::UniformShare(reservation, ActiveNodeCount());
  std::vector<std::int64_t> split(nodes, 0);
  for (std::size_t d = 0, a = 0; d < nodes; ++d) {
    if (active_[d]) split[d] = active_shares[a++];
  }

  std::vector<core::QosWiring> wirings;
  wirings.reserve(nodes);
  for (std::size_t d = 0; d < nodes; ++d) {
    auto wiring =
        monitors_[d]->AdmitClient(client, split[d], limit, *ctrl_qps[d]);
    if (!wiring.ok()) {
      // Roll back the nodes already admitted and the tenant membership.
      for (std::size_t undone = 0; undone < d; ++undone) {
        const Status s = monitors_[undone]->ReleaseClient(client);
        HAECHI_ASSERT(s.ok());
      }
      const Status unmember = directory_.ReleaseClient(client);
      HAECHI_ASSERT(unmember.ok());
      return wiring.status();
    }
    wirings.push_back(wiring.value());
  }

  ClientState state;
  state.id = client;
  state.reservation = reservation;
  state.split.assign(split.begin(), split.end());
  state.demand_ewma.assign(nodes, 1.0);  // neutral prior: equal split
  state.stale_streak.assign(nodes, 0);
  clients_.push_back(std::move(state));
  return wirings;
}

Status ClusterCoordinator::ReleaseClient(ClientId client) {
  const auto it =
      std::find_if(clients_.begin(), clients_.end(),
                   [&](const ClientState& c) { return c.id == client; });
  if (it == clients_.end()) return ErrNotFound("client not admitted");
  for (core::QosMonitor* monitor : monitors_) {
    const Status s = monitor->ReleaseClient(client);
    HAECHI_ASSERT(s.ok());
  }
  const Status released = directory_.ReleaseClient(client);
  HAECHI_ASSERT(released.ok());
  clients_.erase(it);
  return Status::Ok();
}

void ClusterCoordinator::Start(SimTime at) {
  sim_.ScheduleAt(at, [this] {
    if (rebalance_timer_->Running()) return;
    // The rebalance sample lands just before each period boundary (final
    // usage reports, not freshly primed slots); loans settle just after it
    // (fresh pools provisioned) and dry-pool probes tick through the
    // period in between.
    rebalance_timer_->Start(config_.interval - config_.lead);
    settle_timer_->Start(config_.interval + config_.repay_lag);
    if (config_.borrow.policy != BorrowPolicy::kOff) {
      borrow_timer_->Start(config_.borrow_tick);
    }
  });
}

void ClusterCoordinator::Stop() {
  rebalance_timer_->Stop();
  borrow_timer_->Stop();
  settle_timer_->Stop();
}

std::uint32_t ClusterCoordinator::CurrentPeriod() const {
  return monitors_.front()->CurrentPeriod();
}

void ClusterCoordinator::Rebalance() {
  ++stats_.rebalances;
  const auto nodes = monitors_.size();
  const std::uint32_t period = CurrentPeriod();
  for (ClientState& client : clients_) {
    // 1. Refresh per-node usage estimates from the monitors' report slots.
    //    LastCompleted is cumulative within the current period; reading it
    //    once per interval approximates the per-period usage. A node whose
    //    slot holds no report for this period (lost/delayed WRITE, crashed
    //    reporter) keeps its previous EWMA: a missing report is absence of
    //    evidence, not evidence of zero demand.
    for (std::size_t d = 0; d < nodes; ++d) {
      if (!monitors_[d]->HasFreshReport(client.id)) {
        ++client.stale_streak[d];
        ++stats_.stale_reports;
        HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0,
                           obs::EventType::kClusterStaleReport, period,
                           static_cast<std::uint64_t>(d), Raw(client.id),
                           client.stale_streak[d]);
        continue;
      }
      client.stale_streak[d] = 0;
      const std::uint32_t completed = monitors_[d]->LastCompleted(client.id);
      client.demand_ewma[d] =
          config_.ewma * static_cast<double>(completed) +
          (1.0 - config_.ewma) * client.demand_ewma[d];
    }

    // 2. Target split: usage-proportional with a min_share floor.
    std::vector<double> weights(nodes);
    const double floor_weight =
        config_.min_share *
        std::max(1.0, *std::max_element(client.demand_ewma.begin(),
                                        client.demand_ewma.end()));
    for (std::size_t d = 0; d < nodes; ++d) {
      // An inactive node (left, or not yet joined) gets weight zero: the
      // weighted share then places nothing there, and its current share
      // drains to the active nodes through the normal decrease/increase
      // passes below.
      weights[d] = active_[d] ? client.demand_ewma[d] + floor_weight : 0.0;
    }
    const auto target = workload::WeightedShare(client.reservation, weights);

    // 3. Apply decreases first (freeing per-node headroom), then increases.
    const std::vector<std::int64_t> before = client.split;
    std::uint64_t moved = 0;
    std::uint64_t rejected = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t d = 0; d < nodes; ++d) {
        const bool decrease = target[d] < client.split[d];
        if (pass == 0 ? !decrease : decrease) continue;
        if (target[d] == client.split[d]) continue;
        const Status s =
            monitors_[d]->UpdateReservation(client.id, target[d]);
        if (s.ok()) {
          moved += static_cast<std::uint64_t>(
              std::llabs(target[d] - client.split[d]));
          client.split[d] = target[d];
        } else {
          ++rejected;
          HAECHI_LOG_DEBUG("cluster: move rejected on node %zu: %s", d,
                           s.ToString().c_str());
        }
      }
    }

    // 4. If an increase was refused (the target node had no admission
    //    headroom), the freed tokens must not evaporate: park them on any
    //    node that will take them so Σ_d R_i,d == R_i stays invariant.
    std::int64_t placed = 0;
    for (const auto share : client.split) placed += share;
    std::int64_t shortfall = client.reservation - placed;
    HAECHI_ASSERT(shortfall >= 0);
    for (std::size_t d = 0; d < nodes && shortfall > 0; ++d) {
      if (!active_[d]) continue;  // never park tokens on a left node
      const auto& admission = monitors_[d]->admission();
      const std::int64_t headroom = std::min(
          admission.AggregateCapacity() - admission.TotalReserved(),
          admission.LocalCapacity() - client.split[d]);
      const std::int64_t add = std::min(shortfall, headroom);
      if (add <= 0) continue;
      const Status s = monitors_[d]->UpdateReservation(
          client.id, client.split[d] + add);
      if (s.ok()) {
        client.split[d] += add;
        shortfall -= add;
      }
    }
    //    What no active node takes goes back where it came from, as
    //    LeaveNode parks it: a drained inactive node regains the share it
    //    held (nothing else can claim its headroom, since inactive nodes
    //    receive no increases), and the next rebalance retries the drain.
    for (std::size_t d = 0; d < nodes && shortfall > 0; ++d) {
      const std::int64_t add = std::min(shortfall, before[d] - client.split[d]);
      if (add <= 0) continue;
      const Status s = monitors_[d]->UpdateReservation(
          client.id, client.split[d] + add);
      if (s.ok()) {
        client.split[d] += add;
        shortfall -= add;
      }
    }
    // The pre-rebalance placement fit, and decreases only freed capacity,
    // so the shortfall always finds a home.
    HAECHI_ASSERT(shortfall == 0);

    stats_.tokens_moved += moved;
    stats_.rejected_moves += rejected;
    if (moved > 0 || rejected > 0) {
      HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0,
                         obs::EventType::kClusterRebalance, period,
                         Raw(client.id), moved, rejected);
    }
  }
  // A standby promoted after this boundary restores exactly this state.
  CaptureCheckpoint(period);
}

void ClusterCoordinator::CaptureCheckpoint(std::uint32_t period) {
  checkpoint_.valid = true;
  checkpoint_.epoch = period;
  checkpoint_.active = active_;
  checkpoint_.clients.clear();
  checkpoint_.clients.reserve(clients_.size());
  for (const ClientState& client : clients_) {
    checkpoint_.clients.push_back(
        {client.id, client.reservation, client.split, client.demand_ewma});
  }
}

std::size_t ClusterCoordinator::ActiveNodeCount() const {
  return static_cast<std::size_t>(
      std::count(active_.begin(), active_.end(), true));
}

void ClusterCoordinator::SetNodeActive(std::size_t node, bool active) {
  HAECHI_EXPECTS(node < active_.size());
  HAECHI_EXPECTS(clients_.empty());  // topology is scripted before admission
  active_[node] = active;
  HAECHI_EXPECTS(ActiveNodeCount() > 0);
}

void ClusterCoordinator::JoinNode(std::size_t node) {
  HAECHI_EXPECTS(node < active_.size());
  if (active_[node]) return;
  active_[node] = true;
  ++stats_.node_joins;
  HAECHI_LOG_INFO("cluster: node %zu joined (%zu active)", node,
                  ActiveNodeCount());
  // No split moves at the join itself — per-client split sums are
  // untouched (C4 trivially holds at the event); the next rebalance pulls
  // reservation toward the newcomer as demand shows up there.
  HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0, obs::EventType::kNodeJoin,
                     CurrentPeriod(), static_cast<std::int64_t>(node),
                     static_cast<std::int64_t>(ActiveNodeCount()));
}

void ClusterCoordinator::LeaveNode(std::size_t node) {
  HAECHI_EXPECTS(node < active_.size());
  if (!active_[node]) return;
  HAECHI_EXPECTS(ActiveNodeCount() >= 2);
  active_[node] = false;
  ++stats_.node_leaves;

  // Sum-neutral split migration: for every client, drain the leaver's
  // share to zero first (freeing admission headroom is not needed — the
  // receivers are different nodes), then place it on active nodes with
  // headroom. Whatever finds no home is restored onto the leaver — the
  // per-client sum over nodes never changes (C4).
  std::int64_t migrated_total = 0;
  for (ClientState& client : clients_) {
    std::int64_t leaving = client.split[node];
    if (leaving <= 0) continue;
    Status s = monitors_[node]->UpdateReservation(client.id, 0);
    HAECHI_ASSERT(s.ok());
    client.split[node] = 0;
    for (std::size_t d = 0; d < monitors_.size() && leaving > 0; ++d) {
      if (!active_[d]) continue;
      const auto& admission = monitors_[d]->admission();
      const std::int64_t headroom = std::min(
          admission.AggregateCapacity() - admission.TotalReserved(),
          admission.LocalCapacity() - client.split[d]);
      const std::int64_t add = std::min(leaving, headroom);
      if (add <= 0) continue;
      s = monitors_[d]->UpdateReservation(client.id, client.split[d] + add);
      if (!s.ok()) continue;
      client.split[d] += add;
      leaving -= add;
      migrated_total += add;
    }
    if (leaving > 0) {
      // No active node could take the remainder: park it back on the
      // leaver rather than let reservation evaporate (sum-neutrality
      // outranks a clean exit; the next rebalance retries the drain).
      s = monitors_[node]->UpdateReservation(client.id, leaving);
      HAECHI_ASSERT(s.ok());
      client.split[node] = leaving;
    }
  }
  stats_.migrated_tokens += migrated_total;
  HAECHI_LOG_INFO(
      "cluster: node %zu left (%zu active, %lld tokens migrated)", node,
      ActiveNodeCount(), static_cast<long long>(migrated_total));
  HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0, obs::EventType::kNodeLeave,
                     CurrentPeriod(), static_cast<std::int64_t>(node),
                     static_cast<std::int64_t>(ActiveNodeCount()),
                     migrated_total);
}

void ClusterCoordinator::FailOver() {
  ++stats_.failovers;
  const std::uint32_t period = CurrentPeriod();
  const std::int64_t outstanding_before = ledger_.TotalOutstanding();

  // The standby promotes in place. Split state is re-learned from the
  // monitors — they are the ground truth for what is actually provisioned
  // — while soft state (demand EWMAs, membership) restores from the last
  // checkpoint; a client admitted after the checkpoint falls back to the
  // neutral prior, exactly like a fresh admission.
  if (checkpoint_.valid) active_ = checkpoint_.active;
  for (ClientState& client : clients_) {
    for (std::size_t d = 0; d < monitors_.size(); ++d) {
      const auto live = monitors_[d]->ReservationOf(client.id);
      if (live.ok()) client.split[d] = live.value();
    }
    const Checkpoint::Client* saved = nullptr;
    if (checkpoint_.valid) {
      for (const auto& c : checkpoint_.clients) {
        if (c.id == client.id) {
          saved = &c;
          break;
        }
      }
    }
    if (saved != nullptr && saved->demand_ewma.size() ==
                                client.demand_ewma.size()) {
      client.demand_ewma = saved->demand_ewma;
    } else {
      client.demand_ewma.assign(monitors_.size(), 1.0);
    }
    std::fill(client.stale_streak.begin(), client.stale_streak.end(), 0);
  }

  // Loans drain safely across the transition: the promoted coordinator
  // has no authority over grants it never made, so outstanding debt is
  // written off under the failover audit identity instead of being
  // collected against a ledger that died with the old coordinator.
  const std::int64_t written_off = ledger_.WriteOffAll();
  stats_.written_off_tokens += written_off;

  HAECHI_LOG_WARN(
      "cluster: coordinator failover (epoch %u, %lld outstanding, %lld "
      "written off)",
      checkpoint_.valid ? checkpoint_.epoch : 0,
      static_cast<long long>(outstanding_before),
      static_cast<long long>(written_off));
  HAECHI_TRACE_EVENT(
      obs::ActorKind::kCluster, 0, obs::EventType::kCoordFailover, period,
      static_cast<std::int64_t>(checkpoint_.valid ? checkpoint_.epoch : 0),
      outstanding_before, written_off);
}

void ClusterCoordinator::BorrowTick() {
  if (config_.borrow.policy == BorrowPolicy::kOff) return;
  const auto nodes = monitors_.size();
  const std::uint32_t period = CurrentPeriod();
  for (std::size_t d = 0; d < nodes; ++d) {
    if (!active_[d]) continue;  // a left/unjoined node neither borrows...
    if (monitors_[d]->GlobalPoolValue() >= config_.dry_watermark) continue;
    const std::int64_t want =
        std::min(ledger_.Headroom(static_cast<std::uint32_t>(d)),
                 config_.dry_watermark);
    if (want <= 0) continue;  // quota exhausted for this period
    ++stats_.borrow_requests;
    HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0,
                       obs::EventType::kBorrowRequest, period,
                       static_cast<std::uint64_t>(d),
                       static_cast<std::uint64_t>(want),
                       static_cast<std::uint64_t>(
                           ledger_.Quota(static_cast<std::uint32_t>(d))));

    // Pick the peer with the largest pool surplus above the lender floor.
    std::size_t lender = nodes;
    std::int64_t best_surplus = 0;
    for (std::size_t l = 0; l < nodes; ++l) {
      if (l == d) continue;
      if (!active_[l]) continue;  // ...nor lends
      const std::int64_t surplus =
          monitors_[l]->GlobalPoolValue() - config_.lender_floor;
      if (surplus > best_surplus) {
        best_surplus = surplus;
        lender = l;
      }
    }
    if (lender == nodes) continue;  // every peer is near-dry too

    const std::int64_t lent = monitors_[lender]->LendTokens(
        std::min(want, best_surplus), static_cast<std::uint32_t>(d));
    if (lent <= 0) continue;
    monitors_[d]->AbsorbTokens(lent, static_cast<std::uint32_t>(lender));
    ledger_.RecordGrant(static_cast<std::uint32_t>(lender),
                        static_cast<std::uint32_t>(d), lent);
    ++stats_.borrow_grants;
    stats_.borrowed_tokens += lent;
    HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0,
                       obs::EventType::kBorrowGrant, period,
                       static_cast<std::uint64_t>(lender),
                       static_cast<std::uint64_t>(lent),
                       static_cast<std::uint64_t>(d));
  }
}

void ClusterCoordinator::SettleLoans() {
  if (config_.borrow.policy == BorrowPolicy::kOff) return;
  const auto nodes = monitors_.size();
  const std::uint32_t period = CurrentPeriod();

  // Adaptive quota feedback for the period that just closed: how much of
  // what each node borrowed was still sitting unused in its pool at the
  // boundary. The monitor's ledger entry for the closed period (the newest
  // entry belongs to the period now running) recorded the end-of-period
  // pool exactly.
  for (std::size_t d = 0; d < nodes; ++d) {
    const std::int64_t borrowed =
        ledger_.BorrowedThisPeriod(static_cast<std::uint32_t>(d));
    if (borrowed <= 0) continue;
    const auto& periods = monitors_[d]->ledger();
    std::int64_t unused = 0;
    if (periods.size() >= 2) {
      const std::int64_t end_pool = periods[periods.size() - 2].end_pool;
      unused = std::clamp<std::int64_t>(end_pool, 0, borrowed);
    }
    ledger_.AdaptQuota(static_cast<std::uint32_t>(d), borrowed, unused);
  }
  ledger_.ResetPeriod();

  // Repay every outstanding loan out of the borrower's fresh pool. A
  // partial repayment (the fresh pool was smaller than the debt) carries
  // the remainder forward to the next boundary.
  for (std::uint32_t l = 0; l < nodes; ++l) {
    for (std::uint32_t b = 0; b < nodes; ++b) {
      if (l == b) continue;
      const std::int64_t owed = ledger_.Outstanding(l, b);
      if (owed <= 0) continue;
      const std::int64_t repaid = monitors_[b]->LendTokens(owed, l);
      if (repaid <= 0) continue;
      monitors_[l]->AbsorbTokens(repaid, b);
      ledger_.RecordRepay(b, l, repaid);
      stats_.repaid_tokens += repaid;
      HAECHI_TRACE_EVENT(obs::ActorKind::kCluster, 0,
                         obs::EventType::kBorrowRepay, period,
                         static_cast<std::uint64_t>(b),
                         static_cast<std::uint64_t>(repaid),
                         static_cast<std::uint64_t>(l));
    }
  }
}

Result<std::vector<std::int64_t>> ClusterCoordinator::SplitOf(
    ClientId client) const {
  const ClientState* state = Find(client);
  if (state == nullptr) return ErrNotFound("client not admitted");
  return state->split;
}

const ClusterCoordinator::ClientState* ClusterCoordinator::Find(
    ClientId client) const {
  const auto it =
      std::find_if(clients_.begin(), clients_.end(),
                   [&](const ClientState& c) { return c.id == client; });
  return it == clients_.end() ? nullptr : &*it;
}

}  // namespace haechi::cluster
