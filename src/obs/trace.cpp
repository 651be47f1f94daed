#include "obs/trace.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace haechi::obs {

namespace {

Recorder* g_active = nullptr;

struct TypeName {
  EventType type;
  std::string_view name;
};

// Stable wire names: the CSV exporter writes them and the audit tool parses
// them back, so renaming one is a trace-format break.
constexpr TypeName kTypeNames[] = {
    {EventType::kMonitorPeriodStart, "period_start"},
    {EventType::kMonitorPeriodEnd, "period_end"},
    {EventType::kPoolSample, "pool_sample"},
    {EventType::kTokenConvert, "convert"},
    {EventType::kCapacityEstimate, "capacity_estimate"},
    {EventType::kClientPeriodReport, "client_period_report"},
    {EventType::kReportSignal, "report_signal"},
    {EventType::kReportResend, "report_resend"},
    {EventType::kLeaseExpire, "lease_expire"},
    {EventType::kAdmit, "admit"},
    {EventType::kAdmitReject, "admit_reject"},
    {EventType::kReadmit, "readmit"},
    {EventType::kRelease, "release"},
    {EventType::kPoolRebalance, "pool_rebalance"},
    {EventType::kReservationUpdate, "reservation_update"},
    {EventType::kPoolBorrowOut, "borrow_out"},
    {EventType::kPoolBorrowIn, "borrow_in"},
    {EventType::kShardSample, "shard_sample"},
    {EventType::kMonitorCheckpoint, "monitor_checkpoint"},
    {EventType::kMonitorCrash, "monitor_crash"},
    {EventType::kMonitorRecover, "monitor_recover"},
    {EventType::kEnginePeriodStart, "engine_period_start"},
    {EventType::kTokenDecay, "decay"},
    {EventType::kTokenFetch, "faa_post"},
    {EventType::kTokenFetchDone, "faa_done"},
    {EventType::kTokenFetchFail, "faa_fail"},
    {EventType::kTokenDiscard, "faa_discard"},
    {EventType::kPoolEmpty, "pool_empty"},
    {EventType::kReportWrite, "report_write"},
    {EventType::kEngineStop, "engine_stop"},
    {EventType::kFaaExhausted, "faa_exhausted"},
    {EventType::kIoQueued, "io_queued"},
    {EventType::kIoIssue, "io_issue"},
    {EventType::kIoComplete, "io_complete"},
    {EventType::kDegradedEnter, "degraded_enter"},
    {EventType::kDegradedPeriod, "degraded_period"},
    {EventType::kDegradedExit, "degraded_exit"},
    {EventType::kNodeCrash, "node_crash"},
    {EventType::kNodeRestart, "node_restart"},
    {EventType::kNodePause, "node_pause"},
    {EventType::kNodeResume, "node_resume"},
    {EventType::kQpError, "qp_error"},
    {EventType::kOpDropped, "op_dropped"},
    {EventType::kOpDelayed, "op_delayed"},
    {EventType::kOpDuplicated, "op_duplicated"},
    {EventType::kRdmaIssue, "rdma_issue"},
    {EventType::kRdmaComplete, "rdma_complete"},
    {EventType::kKvIssue, "kv_issue"},
    {EventType::kKvComplete, "kv_complete"},
    {EventType::kBorrowRequest, "borrow_request"},
    {EventType::kBorrowGrant, "borrow_grant"},
    {EventType::kBorrowRepay, "borrow_repay"},
    {EventType::kClusterStaleReport, "cluster_stale_report"},
    {EventType::kClusterRebalance, "cluster_rebalance"},
    {EventType::kNodeJoin, "node_join"},
    {EventType::kNodeLeave, "node_leave"},
    {EventType::kCoordFailover, "coord_failover"},
    {EventType::kRunConfig, "run_config"},
    {EventType::kClientSpec, "client_spec"},
    {EventType::kMeasureStart, "measure_start"},
    {EventType::kMeasureEnd, "measure_end"},
    {EventType::kClientCrash, "client_crash"},
    {EventType::kClientRestart, "client_restart"},
    {EventType::kClusterConfig, "cluster_config"},
    {EventType::kEngineBinding, "engine_binding"},
    {EventType::kNodeCapacity, "node_capacity"},
    {EventType::kTenantSpec, "tenant_spec"},
    {EventType::kControllerConfig, "controller_config"},
    {EventType::kControlAction, "control_action"},
    {EventType::kControlRecovered, "control_recovered"},
};

constexpr std::string_view kKindNames[kActorKinds] = {
    "monitor", "engine", "fabric", "kv", "harness", "cluster", "controller"};

}  // namespace

std::string_view ToString(EventType type) {
  for (const TypeName& entry : kTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "unknown";
}

std::string_view ToString(ActorKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < kActorKinds ? kKindNames[index] : "unknown";
}

bool EventTypeFromName(std::string_view name, EventType& out) {
  for (const TypeName& entry : kTypeNames) {
    if (entry.name == name) {
      out = entry.type;
      return true;
    }
  }
  return false;
}

bool ActorKindFromName(std::string_view name, ActorKind& out) {
  for (std::size_t i = 0; i < kActorKinds; ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<ActorKind>(i);
      return true;
    }
  }
  return false;
}

Recorder::Recorder(sim::Simulator& sim) : Recorder(sim, Options{}) {}

Recorder::Recorder(sim::Simulator& sim, Options options)
    : sim_(&sim), options_(options) {
  HAECHI_EXPECTS(options_.ring_capacity > 0);
  for (auto& per_kind : rings_) per_kind.resize(options_.preallocate_actors);
}

Recorder::Recorder(ClockFn clock, Options options)
    : clock_(std::move(clock)), options_(options) {
  HAECHI_EXPECTS(options_.ring_capacity > 0);
  HAECHI_EXPECTS(clock_ != nullptr);
  for (auto& per_kind : rings_) per_kind.resize(options_.preallocate_actors);
}

Recorder::~Recorder() { SetTap(nullptr); }

Recorder::Ring& Recorder::RingFor(ActorKind kind, std::uint32_t actor) {
  auto& per_kind = rings_[static_cast<std::size_t>(kind)];
  if (actor >= per_kind.size()) per_kind.resize(actor + 1);
  return per_kind[actor];
}

void Recorder::Emit(ActorKind kind, std::uint32_t actor, EventType type,
                    std::uint32_t period, std::int64_t a, std::int64_t b,
                    std::int64_t c) {
  EmitAt(sim_ != nullptr ? sim_->Now() : clock_(), kind, actor, type, period,
         a, b, c);
}

void Recorder::EmitAt(SimTime time, ActorKind kind, std::uint32_t actor,
                      EventType type, std::uint32_t period, std::int64_t a,
                      std::int64_t b, std::int64_t c) {
  Ring& ring = RingFor(kind, actor);
  TraceEvent event;
  event.time = time;
  event.seq = ring.appended;
  event.type = type;
  event.actor_kind = kind;
  event.actor = actor;
  event.period = period;
  event.a = a;
  event.b = b;
  event.c = c;
  if (ring.buf.size() < options_.ring_capacity) {
    ring.buf.push_back(event);  // grow lazily up to capacity
  } else {
    ring.buf[ring.appended % options_.ring_capacity] = event;
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    // First wrap fires the one-shot truncation notification (exactly once
    // across all emitters — the exchange arbitrates concurrent wraps).
    if (drop_notify_ &&
        !drop_notified_.exchange(true, std::memory_order_relaxed)) {
      drop_notify_();
    }
  }
  ++ring.appended;
  total_emitted_.fetch_add(1, std::memory_order_relaxed);
  // Cheap common case: no tap installed, one relaxed load. The full
  // epoch-counted entry only happens when a tap might be present.
  if (tap_.load(std::memory_order_relaxed) != nullptr) RunTap(event);
}

void Recorder::RunTap(const TraceEvent& event) {
  // Epoch entry: count in, re-load the pointer, count out. SetTap swaps the
  // pointer first and then waits for entered == exited, so once it returns
  // no emitter can still be running (or about to run) the old callable.
  tap_entered_.fetch_add(1, std::memory_order_seq_cst);
  TapFn* tap = tap_.load(std::memory_order_seq_cst);
  if (tap != nullptr) (*tap)(event);
  tap_exited_.fetch_add(1, std::memory_order_seq_cst);
}

void Recorder::SetTap(std::function<void(const TraceEvent&)> tap) {
  TapFn* next = tap ? new TapFn(std::move(tap)) : nullptr;
  TapFn* old = tap_.exchange(next, std::memory_order_seq_cst);
  if (old != nullptr) {
    // Quiesce: wait for a moment with no emitter inside the tap section.
    // Any emitter entering after the exchange sees the new pointer, so once
    // entered == exited the old callable is unreachable.
    while (tap_entered_.load(std::memory_order_seq_cst) !=
           tap_exited_.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    delete old;
  }
}

void Recorder::AppendActorEvents(const Ring& ring,
                                 std::vector<TraceEvent>& out) {
  if (ring.appended <= ring.buf.size()) {
    out.insert(out.end(), ring.buf.begin(), ring.buf.end());
  } else {
    // The ring wrapped: the oldest retained event sits right after the
    // write cursor.
    const auto cursor = static_cast<std::ptrdiff_t>(ring.appended %
                                                    ring.buf.size());
    out.insert(out.end(), ring.buf.begin() + cursor, ring.buf.end());
    out.insert(out.end(), ring.buf.begin(), ring.buf.begin() + cursor);
  }
}

std::vector<TraceEvent> Recorder::ActorEvents(ActorKind kind,
                                              std::uint32_t actor) const {
  const auto& per_kind = rings_[static_cast<std::size_t>(kind)];
  if (actor >= per_kind.size()) return {};
  std::vector<TraceEvent> out;
  out.reserve(per_kind[actor].buf.size());
  AppendActorEvents(per_kind[actor], out);
  return out;
}

std::vector<TraceEvent> Recorder::Merged() const {
  // Deterministic global order; the tiebreak on (kind, actor, seq) is total,
  // so both paths below yield the same sequence.
  const auto earlier = [](const TraceEvent& x, const TraceEvent& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.actor_kind != y.actor_kind) return x.actor_kind < y.actor_kind;
    if (x.actor != y.actor) return x.actor < y.actor;
    return x.seq < y.seq;
  };
  // Each actor's retained events, oldest first: one or (wrapped) two
  // contiguous segments of its ring.
  struct Run {
    const TraceEvent* next;
    const TraceEvent* end;
    const TraceEvent* wrap_begin;  // second segment, or nullptr
    const TraceEvent* wrap_end;
  };
  std::vector<Run> runs;
  std::size_t total = 0;
  for (const auto& per_kind : rings_) {
    for (const Ring& ring : per_kind) {
      if (ring.buf.empty()) continue;
      const TraceEvent* data = ring.buf.data();
      const std::size_t size = ring.buf.size();
      if (ring.appended <= size) {
        runs.push_back({data, data + size, nullptr, nullptr});
      } else {
        const std::size_t cursor = ring.appended % size;
        runs.push_back({data + cursor, data + size, data, data + cursor});
      }
      total += size;
    }
  }
  std::vector<TraceEvent> out;
  out.reserve(total);

  // Simulator streams are time-ordered per actor, so the global order is a
  // k-way merge: one pass, log2(actors) comparisons per event.
  const auto later = [&](std::size_t x, std::size_t y) {
    return earlier(*runs[y].next, *runs[x].next);
  };
  std::vector<std::size_t> heap(runs.size());
  for (std::size_t i = 0; i < heap.size(); ++i) heap[i] = i;
  std::make_heap(heap.begin(), heap.end(), later);
  bool runs_sorted = true;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Run& run = runs[heap.back()];
    out.push_back(*run.next++);
    if (run.next == run.end && run.wrap_begin != nullptr) {
      run.next = run.wrap_begin;
      run.end = run.wrap_end;
      run.wrap_begin = nullptr;
    }
    if (run.next == run.end) {
      heap.pop_back();
    } else if (earlier(*run.next, out.back())) {
      runs_sorted = false;
      break;
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  if (!runs_sorted) {
    // A stream with a backdated stamp (the threaded harness's EmitAt):
    // fall back to a comparison sort of everything.
    out.clear();
    for (const auto& per_kind : rings_) {
      for (const Ring& ring : per_kind) AppendActorEvents(ring, out);
    }
    std::sort(out.begin(), out.end(), earlier);
  }
  return out;
}

Recorder* ActiveRecorder() { return g_active; }

ScopedRecorder::ScopedRecorder(Recorder* recorder) : previous_(g_active) {
  g_active = recorder;
}

ScopedRecorder::~ScopedRecorder() { g_active = previous_; }

}  // namespace haechi::obs
