#include "rdma/qp.hpp"

#include <memory>

#include "common/assert.hpp"
#include "rdma/fabric.hpp"

namespace haechi::rdma {

QueuePair::QueuePair(Fabric& fabric, Node& node, QpId id,
                     CompletionQueue& send_cq, CompletionQueue& recv_cq,
                     std::size_t send_queue_depth)
    : fabric_(fabric),
      node_(node),
      id_(id),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      send_queue_depth_(send_queue_depth) {
  HAECHI_EXPECTS(send_queue_depth > 0);
}

Status QueuePair::CheckConnectedAndCapacity() const {
  if (state_ == QpState::kError) {
    return ErrFailedPrecondition("QP " + std::to_string(id_) +
                                 " is in the error state");
  }
  if (remote_ == nullptr) {
    return ErrFailedPrecondition("QP " + std::to_string(id_) +
                                 " is not connected");
  }
  if (in_flight_ >= send_queue_depth_) {
    return ErrResourceExhausted("QP " + std::to_string(id_) +
                                " send queue full");
  }
  return Status::Ok();
}

Status QueuePair::PostRead(std::uint64_t wr_id, std::span<std::byte> local,
                           RemoteAddr remote_addr, std::uint32_t rkey) {
  if (auto s = CheckConnectedAndCapacity(); !s.ok()) return s;
  if (local.empty()) return ErrInvalidArgument("zero-length READ");
  const MemoryRegion* mr = node_.pd().FindCovering(local.data(), local.size());
  if (mr == nullptr || !mr->Allows(access::kLocalWrite)) {
    return ErrPermissionDenied("READ destination not in a writable local MR");
  }
  auto op = std::make_shared<Fabric::OpState>();
  op->opcode = Opcode::kRead;
  op->wr_id = wr_id;
  op->src = this;
  op->dst = remote_;
  op->local = local.data();
  op->len = static_cast<std::uint32_t>(local.size());
  op->remote = remote_addr;
  op->rkey = rkey;
  ++in_flight_;
  fabric_.Initiate(std::move(op));
  return Status::Ok();
}

Status QueuePair::PostWrite(std::uint64_t wr_id,
                            std::span<const std::byte> local,
                            RemoteAddr remote_addr, std::uint32_t rkey) {
  if (auto s = CheckConnectedAndCapacity(); !s.ok()) return s;
  if (local.empty()) return ErrInvalidArgument("zero-length WRITE");
  const MemoryRegion* mr = node_.pd().FindCovering(local.data(), local.size());
  if (mr == nullptr || !mr->Allows(access::kLocalRead)) {
    return ErrPermissionDenied("WRITE source not in a readable local MR");
  }
  auto op = std::make_shared<Fabric::OpState>();
  op->opcode = Opcode::kWrite;
  op->wr_id = wr_id;
  op->src = this;
  op->dst = remote_;
  op->len = static_cast<std::uint32_t>(local.size());
  op->remote = remote_addr;
  op->rkey = rkey;
  // Small writes always carry their bytes: they are control-plane traffic
  // (Haechi's silent reports) whose values matter even when bulk payload
  // copying is disabled for speed.
  if (fabric_.copy_payloads() || local.size() <= kAlwaysCopyBytes) {
    op->staging.assign(local.begin(), local.end());
  }
  ++in_flight_;
  fabric_.Initiate(std::move(op));
  return Status::Ok();
}

Status QueuePair::PostFetchAdd(std::uint64_t wr_id, RemoteAddr remote_addr,
                               std::uint32_t rkey, std::int64_t delta) {
  if (auto s = CheckConnectedAndCapacity(); !s.ok()) return s;
  auto op = std::make_shared<Fabric::OpState>();
  op->opcode = Opcode::kFetchAdd;
  op->wr_id = wr_id;
  op->src = this;
  op->dst = remote_;
  op->len = sizeof(std::uint64_t);
  op->remote = remote_addr;
  op->rkey = rkey;
  op->atomic_delta = delta;
  ++in_flight_;
  fabric_.Initiate(std::move(op));
  return Status::Ok();
}

Status QueuePair::PostCompareSwap(std::uint64_t wr_id, RemoteAddr remote_addr,
                                  std::uint32_t rkey, std::uint64_t expected,
                                  std::uint64_t desired) {
  if (auto s = CheckConnectedAndCapacity(); !s.ok()) return s;
  auto op = std::make_shared<Fabric::OpState>();
  op->opcode = Opcode::kCompareSwap;
  op->wr_id = wr_id;
  op->src = this;
  op->dst = remote_;
  op->len = sizeof(std::uint64_t);
  op->remote = remote_addr;
  op->rkey = rkey;
  op->atomic_expected = expected;
  op->atomic_desired = desired;
  ++in_flight_;
  fabric_.Initiate(std::move(op));
  return Status::Ok();
}

Status QueuePair::PostSend(std::uint64_t wr_id,
                           std::span<const std::byte> payload,
                           ServiceClass service_class) {
  if (auto s = CheckConnectedAndCapacity(); !s.ok()) return s;
  if (payload.empty()) return ErrInvalidArgument("zero-length SEND");
  auto op = std::make_shared<Fabric::OpState>();
  op->opcode = Opcode::kSend;
  op->wr_id = wr_id;
  op->src = this;
  op->dst = remote_;
  op->len = static_cast<std::uint32_t>(payload.size());
  op->service_class = service_class;
  // SEND payloads are always copied: they are small control messages and
  // the receive path must hand real bytes to the application.
  op->staging.assign(payload.begin(), payload.end());
  ++in_flight_;
  fabric_.Initiate(std::move(op));
  return Status::Ok();
}

Status QueuePair::PostRecv(std::uint64_t wr_id, std::span<std::byte> buffer) {
  if (buffer.empty()) return ErrInvalidArgument("zero-length RECV buffer");
  recv_queue_.push_back(PostedRecv{wr_id, buffer});
  // Drain any SEND that arrived before this RECV was posted.
  while (!parked_sends_.empty() && !recv_queue_.empty()) {
    std::vector<std::byte> payload = std::move(parked_sends_.front());
    parked_sends_.pop_front();
    PostedRecv recv = recv_queue_.front();
    recv_queue_.pop_front();
    const std::size_t n = std::min(recv.buffer.size(), payload.size());
    std::copy_n(payload.begin(), n, recv.buffer.begin());
    WorkCompletion wc;
    wc.wr_id = recv.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.status = WcStatus::kSuccess;
    wc.byte_len = static_cast<std::uint32_t>(n);
    wc.timestamp = fabric_.sim().Now();
    recv_cq_.Push(wc);
  }
  return Status::Ok();
}

}  // namespace haechi::rdma
