#include "core/monitor.hpp"

#include <cstring>
#include <variant>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

QosMonitor::QosMonitor(sim::Simulator& sim, const QosConfig& config,
                       rdma::Node& node, double profiled_global_iops,
                       double profiled_local_iops)
    : MonitorCore(*this, config, profiled_global_iops, profiled_local_iops,
                  /*shards=*/1),
      sim_(sim),
      node_(node),
      loopback_cas_(config.loopback_cas) {
  control_block_.resize((1 + kMaxClients) * sizeof(std::uint64_t));
  control_mr_ = &node_.pd().Register(
      std::span<std::byte>(control_block_),
      rdma::access::kLocalRead | rdma::access::kLocalWrite |
          rdma::access::kRemoteRead | rdma::access::kRemoteWrite |
          rdma::access::kRemoteAtomic);

  if (loopback_cas_) {
    // The monitor observes the pool word through the NIC, as the paper
    // describes: a loopback RC connection on the data node itself.
    auto& cq_a = node_.CreateCq();
    auto& cq_b = node_.CreateCq();
    loop_qp_ = &node_.CreateQp(cq_a, cq_a);
    loop_peer_qp_ = &node_.CreateQp(cq_b, cq_b);
    node_.fabric().Connect(*loop_qp_, *loop_peer_qp_);
    cq_a.SetNotify([this](const rdma::WorkCompletion& wc) {
      loop_cas_in_flight_ = false;
      if (wc.ok()) {
        loop_observed_pool_ = static_cast<std::int64_t>(wc.atomic_result);
      }
    });
  }

  period_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.period, [this] { Boundary(); });
  check_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.check_interval, [this] { CheckTick(); });
}

std::int64_t QosMonitor::ReadPoolWord() const {
  std::uint64_t raw;
  std::memcpy(&raw, control_block_.data(), sizeof(raw));
  return static_cast<std::int64_t>(raw);
}

void QosMonitor::WritePoolWord(std::int64_t value) {
  const auto raw = static_cast<std::uint64_t>(value);
  std::memcpy(control_block_.data(), &raw, sizeof(raw));
}

std::int64_t QosMonitor::Load(std::size_t /*shard*/) { return ReadPoolWord(); }

std::int64_t QosMonitor::Exchange(std::size_t /*shard*/, std::int64_t value) {
  const std::int64_t old = ReadPoolWord();
  WritePoolWord(value);
  return old;
}

bool QosMonitor::Cas(std::size_t /*shard*/, std::int64_t& expected,
                     std::int64_t desired) {
  const std::int64_t word = ReadPoolWord();
  if (word != expected) {
    expected = word;
    return false;
  }
  WritePoolWord(desired);
  return true;
}

std::int64_t QosMonitor::Add(std::size_t shard, std::int64_t delta) {
  return Exchange(shard, ReadPoolWord() + delta);
}

std::uint64_t QosMonitor::ReadSlot(std::size_t slot) {
  std::uint64_t raw;
  std::memcpy(&raw, control_block_.data() + (1 + slot) * sizeof(raw),
              sizeof(raw));
  return raw;
}

void QosMonitor::PrimeSlot(std::size_t slot, std::uint64_t packed) {
  std::memcpy(control_block_.data() + (1 + slot) * sizeof(packed), &packed,
              sizeof(packed));
}

void QosMonitor::Send(std::size_t slot, const MonitorMessage& msg) {
  rdma::QueuePair* qp = ctrl_qps_[slot];
  std::visit(
      [&](const auto& m) {
        const Status s = qp->PostSend(
            next_wr_id_++,
            std::span<const std::byte>(reinterpret_cast<const std::byte*>(&m),
                                       sizeof(m)));
        if (!s.ok()) {
          HAECHI_LOG_WARN("monitor: ctrl send to slot %zu failed: %s", slot,
                          s.ToString().c_str());
        }
      },
      msg);
}

void QosMonitor::Emit([[maybe_unused]] obs::ActorKind kind,
                      [[maybe_unused]] std::uint32_t actor,
                      [[maybe_unused]] obs::EventType type,
                      [[maybe_unused]] std::uint32_t period,
                      [[maybe_unused]] std::int64_t a,
                      [[maybe_unused]] std::int64_t b,
                      [[maybe_unused]] std::int64_t c) {
  HAECHI_TRACE_EVENT(kind, actor, type, period, a, b, c);
}

std::int64_t QosMonitor::ObservePool(std::int64_t sampled) {
  if (!loopback_cas_) return sampled;
  if (!loop_cas_in_flight_) {
    // CAS(0, 0): reads the word through the NIC without disturbing it (a
    // compare that can only "succeed" by writing the value it found).
    const Status s = loop_qp_->PostCompareSwap(
        next_wr_id_++, control_mr_->remote_addr(), control_mr_->rkey(),
        /*expected=*/0, /*desired=*/0);
    loop_cas_in_flight_ = s.ok();
  }
  // The observation returned is the last CAS that completed, not the one
  // just posted.
  return loop_observed_pool_;
}

Result<QosWiring> QosMonitor::AdmitClient(ClientId client,
                                          std::int64_t reservation,
                                          std::int64_t limit,
                                          rdma::QueuePair& ctrl_qp) {
  const Result<std::size_t> slot =
      MonitorCore::AdmitClient(client, reservation, limit);
  if (!slot.ok()) return slot.status();
  ctrl_qps_[slot.value()] = &ctrl_qp;
  ctrl_qp.send_cq().SetNotify([](const rdma::WorkCompletion&) {});
  OnChannelBound(client);

  QosWiring wiring;
  wiring.global_pool_addr = control_mr_->remote_addr();
  wiring.global_pool_rkey = control_mr_->rkey();
  wiring.report_slot_addr = control_mr_->remote_addr() +
                            (1 + slot.value()) * sizeof(std::uint64_t);
  wiring.report_slot_rkey = control_mr_->rkey();
  return wiring;
}

std::int64_t QosMonitor::LendTokens(std::int64_t want, std::uint32_t peer) {
  const std::int64_t lent = MonitorCore::LendTokens(want, peer);
  if (lent > 0) loop_observed_pool_ = ReadPoolWord();
  return lent;
}

void QosMonitor::AbsorbTokens(std::int64_t tokens, std::uint32_t peer) {
  if (MonitorCore::AbsorbTokens(tokens, peer) > 0) {
    loop_observed_pool_ = ReadPoolWord();
  }
}

void QosMonitor::Boundary() {
  if (!running()) return;
  StartPeriod();
  loop_observed_pool_ = InitialPool();
}

void QosMonitor::StartTimers() {
  period_timer_->Start();
  check_timer_->Start();
}

void QosMonitor::Start(SimTime at) {
  HAECHI_EXPECTS(!running());
  SetRunning(true);
  sim_.ScheduleAt(at, [this] {
    if (!running()) return;
    Boundary();
    StartTimers();
  });
}

void QosMonitor::Stop() {
  SetRunning(false);
  period_timer_->Stop();
  check_timer_->Stop();
}

void QosMonitor::Crash() {
  if (!MonitorCore::Crash()) return;
  period_timer_->Stop();
  check_timer_->Stop();
}

void QosMonitor::Recover(SimTime at) {
  HAECHI_EXPECTS(Crashed());
  SetRunning(true);
  sim_.ScheduleAt(at, [this] {
    if (!running() || !Crashed()) return;
    MonitorCore::Recover();
    loop_observed_pool_ = InitialPool();
    StartTimers();
  });
}

}  // namespace haechi::core
