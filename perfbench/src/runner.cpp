#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>

#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"

namespace perfbench {
namespace {

using haechi::MakeClientId;
using haechi::ToSeconds;

// Ring capacity for traced runs: large enough that no actor's ring wraps,
// so the audit sees the whole stream (rings grow lazily, so this costs
// only what is emitted).
constexpr std::size_t kUnboundedRing = std::size_t{1} << 28;

/// Running mean/max of Simulator::PendingEvents samples.
struct DepthSampler {
  double sum = 0;
  std::uint64_t samples = 0;
  std::uint64_t max = 0;
  void Add(std::size_t depth) {
    sum += static_cast<double>(depth);
    ++samples;
    max = std::max<std::uint64_t>(max, depth);
  }
};

void SumEngine(Outcome& out, const haechi::core::ClientQosEngine::Stats& s) {
  out.faa_ops += s.faa_ops;
  out.report_writes += s.report_writes;
  out.rejected_submits += s.rejected_submits;
  out.faa_failures += s.faa_failures;
  out.tokens_from_pool += s.tokens_from_pool;
  out.tokens_from_reservation += s.tokens_from_reservation;
}

void SumMonitor(Outcome& out, const haechi::core::QosMonitor::Stats& s) {
  out.checks += s.checks;
  out.conversions += s.conversions;
  out.report_signals += s.report_signals;
  out.lease_expirations += s.lease_expirations;
}

template <typename Config>
void EnableTrace(Config& config) {
  config.trace.enabled = true;
  config.trace.detail = true;
  config.trace.ring_capacity = kUnboundedRing;
}

void KeepTrace(Outcome& out, const haechi::obs::Recorder* recorder) {
  if (recorder == nullptr) return;
  out.trace_emitted = recorder->TotalEmitted();
  out.trace_dropped = recorder->TotalDropped();
  out.trace = recorder->Merged();
}

void KeepCapacity(Outcome& out,
                  const std::vector<haechi::harness::ExperimentResult::
                                        CapacityPoint>& trace,
                  std::uint32_t warmup_periods) {
  for (const auto& point : trace) {
    if (point.period > warmup_periods) {
      out.capacity.emplace_back(point.estimate, point.completions);
    }
  }
}

std::uint32_t WarmupPeriods(haechi::SimDuration warmup,
                            haechi::SimDuration period) {
  return static_cast<std::uint32_t>(warmup / period);
}

/// Adds a series' per-period per-client completions into out.completed,
/// summing over calls (the cluster passes one series per data node).
void AddSeries(Outcome& out, const haechi::stats::PeriodSeries& series) {
  const std::size_t n = series.Clients();
  if (out.completed.size() < series.Periods()) {
    out.completed.resize(series.Periods(), std::vector<std::int64_t>(n, 0));
  }
  for (std::size_t p = 0; p < series.Periods(); ++p) {
    for (std::size_t c = 0; c < n; ++c) {
      out.completed[p][c] +=
          series.At(p, MakeClientId(static_cast<std::uint32_t>(c)));
    }
  }
  out.measured_ios += series.Total();
}

/// Runs a simulator-backed harness constructed at host time `start`, with
/// the set-up marker and the optional queue-depth sampler installed; fills
/// the host-time and simulator fields of `out`.
template <typename Harness>
auto RunSimulated(Harness& exp, const RunOptions& options, double start,
                  Outcome& out) {
  DepthSampler depth;
  double first_event = 0;
  // Scheduled before Run() builds anything, so it is the first event the
  // simulator pops: the host time between construction and this callback
  // is the harness's set-up.
  exp.simulator().ScheduleAt(0, [&first_event] {
    first_event = HostSeconds();
  });
  if (options.queue_sample_every > 0) {
    exp.simulator().SetProgressHook(
        options.queue_sample_every,
        [&depth, &exp](haechi::SimTime, std::uint64_t) {
          depth.Add(exp.simulator().PendingEvents());
        });
  }
  auto result = exp.Run();
  const double end = HostSeconds();
  out.setup_s = first_event - start;
  out.run_host_s = end - first_event;
  // Minus the set-up marker: the harness's own event count.
  out.events_run = exp.simulator().EventsRun() - 1;
  out.sim_time_s = ToSeconds(exp.simulator().Now());
  out.queue_depth_mean =
      depth.samples > 0 ? depth.sum / static_cast<double>(depth.samples) : 0;
  out.queue_depth_max = depth.max;
  return result;
}

Outcome RunSim(const Workload& w, const RunOptions& options) {
  haechi::harness::ExperimentConfig config = w.single;
  if (options.traced) EnableTrace(config);
  Outcome out;
  const double start = HostSeconds();
  haechi::harness::Experiment exp(std::move(config));
  haechi::harness::ExperimentResult r = RunSimulated(exp, options, start, out);

  AddSeries(out, r.series);
  out.measured_s = ToSeconds(static_cast<haechi::SimDuration>(
                                 w.single.measure_periods) *
                             w.single.qos.period);
  for (std::size_t c = 0; c < w.single.clients.size(); ++c) {
    const auto& s = r.engine_stats.at(c);
    out.completed_total += s.completed_total;
    out.refused.push_back(static_cast<std::int64_t>(s.rejected_submits));
    out.queued_end += static_cast<std::int64_t>(exp.engine(c).QueueDepth());
    SumEngine(out, s);
  }
  const auto& faults = r.fault_stats;
  out.errored = static_cast<std::int64_t>(
      faults.ops_dropped + faults.dead_target_naks +
      faults.flushed_completions + faults.dropped_completions);
  out.latency_count = r.latency.Count();
  out.latency_p50_ns = r.latency.Percentile(50);
  out.latency_p999_ns = r.latency.Percentile(99.9);
  out.latency_mean_ns = r.latency.Mean();

  haechi::rdma::Fabric& fabric = exp.fabric();
  out.ops_delivered = fabric.OpsDelivered();
  for (std::size_t i = 0; i < fabric.NodeCount(); ++i) {
    out.station_items +=
        fabric.node(i).in_nic().Served() + fabric.node(i).out_nic().Served();
  }
  out.data_nic_busy_s = ToSeconds(fabric.node(0).in_nic().BusyTime());

  out.token_batch = w.single.qos.token_batch;
  SumMonitor(out, r.monitor_stats);
  KeepCapacity(out, r.capacity_trace,
               WarmupPeriods(w.single.warmup, w.single.qos.period));
  if (options.traced) {
    KeepTrace(out, exp.recorder());
    out.spans = std::move(r.spans);
  }
  return out;
}

Outcome RunCluster(const Workload& w, const RunOptions& options) {
  haechi::harness::ClusterExperimentConfig config = w.cluster;
  if (options.traced) EnableTrace(config);
  Outcome out;
  const double start = HostSeconds();
  haechi::harness::ClusterExperiment exp(std::move(config));
  haechi::harness::ClusterExperimentResult r =
      RunSimulated(exp, options, start, out);

  for (const auto& series : r.node_series) AddSeries(out, series);
  out.measured_s = ToSeconds(static_cast<haechi::SimDuration>(
                                 w.cluster.measure_periods) *
                             w.cluster.qos.period);
  for (const auto& client_stats : r.engine_stats) {
    std::int64_t refused = 0;
    for (const auto& s : client_stats) {
      out.completed_total += s.completed_total;
      refused += static_cast<std::int64_t>(s.rejected_submits);
      SumEngine(out, s);
    }
    out.refused.push_back(refused);
  }
  // The cluster harness installs no fault plan and exposes no fabric:
  // errored I/Os cannot occur and are not counted.
  out.token_batch = w.cluster.qos.token_batch;
  for (const auto& s : r.monitor_stats) SumMonitor(out, s);
  out.rebalances = r.cluster_stats.rebalances;
  out.tokens_moved = r.cluster_stats.tokens_moved;
  out.borrow_granted = r.borrow_granted;
  out.borrow_repaid = r.borrow_repaid;
  out.borrow_outstanding = r.borrow_outstanding;
  for (std::size_t i = 0; i < options.rebalance_calls; ++i) {
    const double t = HostSeconds();
    exp.coordinator().Rebalance();
    out.rebalance_ns.push_back((HostSeconds() - t) * 1e9);
  }
  if (options.traced) {
    KeepTrace(out, exp.recorder());
    out.spans = haechi::obs::AssembleSpans(out.trace);
  }
  return out;
}

Outcome RunThreads(const Workload& w, const RunOptions& options) {
  haechi::harness::ExperimentConfig config = w.single;
  if (options.traced) EnableTrace(config);
  Outcome out;
  const double start = HostSeconds();
  haechi::harness::ThreadedExperiment exp(std::move(config));
  haechi::harness::ThreadedExperimentResult r = exp.Run();
  const double end = HostSeconds();
  // The threaded harness exposes no hook at monitor start, so set-up is
  // the wall time Run() spent beyond the periods it was scheduled to run.
  const std::uint32_t warmup_periods =
      WarmupPeriods(w.single.warmup, w.single.qos.period);
  const double scheduled =
      ToSeconds(static_cast<haechi::SimDuration>(
                    warmup_periods + w.single.measure_periods) *
                w.single.qos.period);
  out.setup_s = (end - start) - scheduled;
  out.run_host_s = scheduled;

  AddSeries(out, r.series);
  out.measured_s = ToSeconds(static_cast<haechi::SimDuration>(
                                 w.single.measure_periods) *
                             w.single.qos.period);
  for (const auto& worker : r.worker_stats) {
    out.batches += worker.batches;
    out.runtime_ios += worker.ios;
    out.idle_sleeps += worker.idle_sleeps;
  }
  out.completed_total = static_cast<std::int64_t>(out.runtime_ios);
  for (const auto& s : r.engine_stats) {
    out.refused.push_back(static_cast<std::int64_t>(s.rejected_submits));
    SumEngine(out, s);
  }
  out.token_batch = w.single.qos.token_batch * w.single.qos.fetch_batch;
  SumMonitor(out, r.monitor_stats);
  KeepCapacity(out, r.capacity_trace, warmup_periods);
  for (const auto& rt : r.engine_runtime_stats) {
    out.faa_home_hits += rt.faa_home_hits;
    out.faa_steals += rt.faa_steals;
    out.faa_dry_probes += rt.faa_dry_probes;
  }
  out.report_write_retries = r.report_write_retries;
  // The last ledger entry may still be open when the snapshot is taken.
  for (std::size_t i = 0; i + 1 < r.ledger.size(); ++i) {
    const auto& l = r.ledger[i];
    if (l.crashed) continue;
    ++out.ledger_periods;
    if (l.initial_pool + l.minted + l.absorbed - l.granted - l.lent !=
        l.end_pool) {
      ++out.ledger_violations;
    }
  }
  if (options.traced) KeepTrace(out, exp.recorder());
  return out;
}

}  // namespace

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr std::size_t kEventProbeWords = std::size_t{1} << 23;  // 64 MiB
constexpr int kEventProbeEvents = 100000;
constexpr std::size_t kRecordProbeRecords = 16384;               // 64 MiB
constexpr std::size_t kRecordBytes = 4096;

std::int64_t probe_table_kb = 0;

const std::vector<std::uint64_t>& EventProbeTable() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> words(kEventProbeWords);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * 7;
    probe_table_kb += static_cast<std::int64_t>(
        words.size() * sizeof(std::uint64_t) / 1024);
    return words;
  }();
  return table;
}

const std::vector<std::byte>& RecordProbeRegion() {
  static const std::vector<std::byte> region = [] {
    std::vector<std::byte> bytes(kRecordProbeRecords * kRecordBytes,
                                 std::byte{1});
    probe_table_kb += static_cast<std::int64_t>(bytes.size() / 1024);
    return bytes;
  }();
  return region;
}

std::uint64_t XorShift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Keeps the probe loops from being optimised away.
std::atomic<std::uint64_t> probe_sink{0};

/// A miniature discrete-event loop of its own: a binary heap of timed
/// std::function events, about 200 pending, each allocating its closure and
/// reading a random word of a 64 MiB table before scheduling its successor.
double EventProbeSeconds() {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  const std::vector<std::uint64_t>& table = EventProbeTable();
  std::priority_queue<Event, std::vector<Event>, Later> pending;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  int left = kEventProbeEvents;
  std::function<void(std::uint64_t)> spawn = [&](std::uint64_t key) {
    const std::uint64_t word = (key * 3) & (table.size() - 1);
    pending.push(Event{now + XorShift(x) % 1000, ++seq, [&, word] {
                         acc += table[word];
                         if (--left > 0) spawn(XorShift(x));
                       }});
  };
  const double start = HostSeconds();
  for (int i = 0; i < 200; ++i) spawn(XorShift(x));
  while (!pending.empty()) {
    Event event = pending.top();
    pending.pop();
    now = event.time;
    event.fn();
  }
  const double elapsed = HostSeconds() - start;
  probe_sink += acc;
  return elapsed;
}

double RecordProbeSeconds(std::size_t threads) {
  const std::vector<std::byte>& region = RecordProbeRegion();
  const double start = HostSeconds();
  std::vector<std::thread> copiers;
  for (std::size_t t = 0; t < threads; ++t) {
    copiers.emplace_back([&region, t] {
      std::array<std::byte, kRecordBytes> buffer{};
      std::uint64_t x = 88172645463325252ULL + t;
      std::uint64_t acc = 0;
      for (int i = 0; i < 90000; ++i) {
        const std::size_t record = XorShift(x) % kRecordProbeRecords;
        std::memcpy(buffer.data(), region.data() + record * kRecordBytes,
                    kRecordBytes);
        acc += static_cast<std::uint64_t>(buffer[x % kRecordBytes]);
      }
      probe_sink += acc;
    });
  }
  for (auto& copier : copiers) copier.join();
  return HostSeconds() - start;
}

}  // namespace

std::int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss - probe_table_kb;
}

double ProbeSeconds(const Workload& workload) {
  if (workload.runtime == Runtime::kThreads) {
    return RecordProbeSeconds(
        std::max<std::size_t>(workload.single.runtime_workers, 1));
  }
  return EventProbeSeconds();
}

Outcome RunOnce(const Workload& workload, const RunOptions& options) {
  switch (workload.runtime) {
    case Runtime::kSim:
      return RunSim(workload, options);
    case Runtime::kCluster:
      return RunCluster(workload, options);
    case Runtime::kThreads:
      return RunThreads(workload, options);
  }
  return {};
}

}  // namespace perfbench
