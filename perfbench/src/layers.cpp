#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "json.hpp"
#include "kvstore/client.hpp"
#include "kvstore/layout.hpp"
#include "kvstore/server.hpp"
#include "net/station.hpp"
#include "obs/audit.hpp"
#include "rdma/fabric.hpp"
#include "runner.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_engine.hpp"
#include "runtime/threaded_fabric.hpp"
#include "runtime/threaded_monitor.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace perfbench {
namespace {

namespace core = haechi::core;
namespace kvstore = haechi::kvstore;
namespace rdma = haechi::rdma;
namespace rt = haechi::runtime;
namespace sim = haechi::sim;
using haechi::MakeClientId;
using haechi::Micros;
using haechi::Millis;
using haechi::Rng;
using haechi::SimTime;

// Every probe times this many batches and reports the median batch.
constexpr int kBatches = 5;

/// Nearest-rank quantile of `values` (sorted in place).
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median over kBatches calls of `batch`, each returning host ns per op.
double MedianBatchNs(const std::function<double()>& batch) {
  std::vector<double> samples;
  for (int i = 0; i < kBatches; ++i) samples.push_back(batch());
  return Quantile(samples, 0.5);
}

/// Host ns per op of `ops` calls of `op`.
template <typename Op>
double TimeOps(std::size_t ops, Op&& op) {
  const double start = HostSeconds();
  for (std::size_t i = 0; i < ops; ++i) op(i);
  return (HostSeconds() - start) * 1e9 / static_cast<double>(ops);
}

// --- sim --------------------------------------------------------------------

/// BinaryHeapEventQueue Schedule+PopNext pairs at a steady depth, event
/// times spread over the next simulated millisecond.
double QueueChurnNs(std::size_t depth, std::uint64_t seed) {
  sim::BinaryHeapEventQueue queue;
  Rng rng(seed);
  SimTime now = 0;
  const auto next_time = [&] {
    return now + static_cast<SimTime>(rng.NextBelow(Millis(1)));
  };
  for (std::size_t i = 0; i < depth; ++i) queue.Schedule(next_time(), [] {});
  return MedianBatchNs([&] {
    return TimeOps(200000, [&](std::size_t) {
      sim::Event event = queue.PopNext();
      now = event.time;
      queue.Schedule(next_time(), [] {});
    });
  });
}

/// Simulator loop cost with one periodic timer per client (used where a
/// workload runs no simulator of its own).
double TimerEventNs(std::size_t timers) {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> running;
  std::uint64_t fires = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    running.push_back(std::make_unique<sim::PeriodicTimer>(
        simulator, Micros(100 + static_cast<std::int64_t>(i)),
        [&fires] { ++fires; }));
    running.back()->Start();
  }
  return MedianBatchNs([&] {
    const std::uint64_t before = simulator.EventsRun();
    const double start = HostSeconds();
    simulator.RunUntil(simulator.Now() + Millis(200));
    return (HostSeconds() - start) * 1e9 /
           static_cast<double>(simulator.EventsRun() - before);
  });
}

// --- net --------------------------------------------------------------------

/// FairShareStation Submit -> done, one item in flight per flow.
double StationNsPerItem(std::size_t flows, std::uint64_t seed) {
  return MedianBatchNs([&] {
    sim::Simulator simulator;
    haechi::net::FairShareStation station(simulator, "probe", 0.05, seed);
    constexpr std::uint64_t kItems = 100000;
    std::uint64_t submitted = 0;
    std::function<void(haechi::net::FlowId)> submit =
        [&](haechi::net::FlowId flow) {
          ++submitted;
          station.Submit(flow, Micros(1), [&submit, &submitted, flow] {
            if (submitted < kItems) submit(flow);
          });
        };
    const double start = HostSeconds();
    for (std::size_t f = 0; f < flows; ++f) {
      submit(static_cast<haechi::net::FlowId>(f));
    }
    simulator.Run();
    return (HostSeconds() - start) * 1e9 / static_cast<double>(kItems);
  });
}

// --- rdma / kvstore / core rigs ---------------------------------------------

/// One data node (with the KV store) and one client node on a fabric.
struct Rig {
  sim::Simulator simulator;
  rdma::Fabric fabric;
  rdma::Node& server;
  rdma::Node& client;
  kvstore::KvServer store;

  Rig(const haechi::net::ModelParams& net, std::uint64_t records,
      std::uint64_t seed)
      : fabric(simulator, net, seed),
        server(fabric.AddNode("server", rdma::NodeRole::kData)),
        client(fabric.AddNode("client")),
        store(server, StoreConfig(records)) {}

  static kvstore::KvServer::Config StoreConfig(std::uint64_t records) {
    kvstore::KvServer::Config config;
    config.record_count = records;
    return config;
  }

  /// A connected (client QP, server QP) pair.
  std::pair<rdma::QueuePair*, rdma::QueuePair*> Connect(
      rdma::CompletionQueue& client_recv) {
    auto& client_cq = client.CreateCq();
    auto& server_cq = server.CreateCq();
    auto& client_qp = client.CreateQp(client_cq, client_recv);
    auto& server_qp = server.CreateQp(server_cq, server_cq);
    fabric.Connect(client_qp, server_qp);
    return {&client_qp, &server_qp};
  }

  /// Steps the simulator until `done` holds.
  void RunUntil(const bool& done) {
    while (!done && simulator.Step()) {
    }
  }
};

/// Raw QueuePair READ or WRITE of one record, post -> CQ notify.
double PostToCqNs(const haechi::net::ModelParams& net, std::uint64_t records,
                  bool write, std::uint64_t seed) {
  Rig rig(net, records, seed);
  auto& cq = rig.client.CreateCq();
  auto [qp, server_qp] = rig.Connect(cq);
  (void)server_qp;
  std::vector<std::byte> buffer(rig.store.view().payload_bytes);
  rig.client.pd().Register(std::span<std::byte>(buffer), rdma::access::kAll);
  const kvstore::StoreView view = rig.store.view();
  bool done = false;
  cq.SetNotify([&done, &cq](const rdma::WorkCompletion&) {
    rdma::WorkCompletion wc;
    while (cq.PollOne(wc)) {
    }
    done = true;
  });
  Rng rng(seed);
  std::uint64_t wr_id = 0;
  return MedianBatchNs([&] {
    return TimeOps(20000, [&](std::size_t) {
      done = false;
      const rdma::RemoteAddr addr =
          view.RecordAddr(rng.NextBelow(records)) + kvstore::kVersionBytes;
      const haechi::Status posted =
          write ? qp->PostWrite(++wr_id, std::span<const std::byte>(buffer),
                                addr, view.data_rkey)
                : qp->PostRead(++wr_id, std::span<std::byte>(buffer), addr,
                               view.data_rkey);
      HAECHI_ASSERT(posted.ok());
      rig.RunUntil(done);
    });
  });
}

/// KvClient one-sided GET or PUT of one record, call -> done callback.
double KvNs(const haechi::net::ModelParams& net, std::uint64_t records,
            bool put, std::uint64_t seed) {
  Rig rig(net, records, seed);
  auto& cq = rig.client.CreateCq();
  auto [qp, server_qp] = rig.Connect(cq);
  (void)server_qp;
  kvstore::KvClient kv(rig.client, *qp, rig.store.view(), {});
  const std::vector<std::byte> value(rig.store.view().payload_bytes,
                                     std::byte{7});
  bool done = false;
  bool ok = true;
  const auto finish = [&done, &ok](const kvstore::KvClient::Completion& c) {
    ok = ok && c.status.ok();
    done = true;
  };
  Rng rng(seed);
  const double ns = MedianBatchNs([&] {
    return TimeOps(20000, [&](std::size_t) {
      done = false;
      const std::uint64_t key = rng.NextBelow(records);
      const haechi::Status issued =
          put ? kv.PutOneSided(key, std::span<const std::byte>(value), finish)
              : kv.GetOneSided(key, finish);
      HAECHI_ASSERT(issued.ok());
      rig.RunUntil(done);
    });
  });
  HAECHI_ASSERT(ok);
  return ns;
}

double ProfiledIops(const haechi::harness::ExperimentConfig& c) {
  return c.profiled_global_iops > 0 ? c.profiled_global_iops
                                    : c.net.GlobalCapacityIops();
}

double ProfiledLocalIops(const haechi::harness::ExperimentConfig& c) {
  return c.profiled_local_iops > 0 ? c.profiled_local_iops
                                   : c.net.LocalCapacityIops();
}

/// Control channels of idle clients: each Add() connects one QP pair whose
/// client side swallows the monitor's SENDs (receives re-posted on
/// completion) and returns the monitor-side QP.
struct IdleClients {
  std::vector<std::unique_ptr<std::vector<std::byte>>> buffers;

  rdma::QueuePair& Add(Rig& rig) {
    auto& recv_cq = rig.client.CreateCq();
    auto [client_qp, server_qp] = rig.Connect(recv_cq);
    buffers.push_back(std::make_unique<std::vector<std::byte>>(256));
    std::vector<std::byte>& buffer = *buffers.back();
    (void)client_qp->PostRecv(0, std::span<std::byte>(buffer));
    recv_cq.SetNotify([client_qp, &buffer, &recv_cq](
                          const rdma::WorkCompletion&) {
      rdma::WorkCompletion wc;
      while (recv_cq.PollOne(wc)) {
      }
      (void)client_qp->PostRecv(0, std::span<std::byte>(buffer));
    });
    return *server_qp;
  }
};

/// Host ns per QosMonitor check tick with `clients` admitted idle clients.
double CheckTickNs(const haechi::harness::ExperimentConfig& c,
                   std::size_t clients, std::uint64_t seed) {
  Rig rig(c.net, 1024, seed);
  core::QosMonitor monitor(rig.simulator, c.qos, rig.server, ProfiledIops(c),
                           ProfiledLocalIops(c));
  IdleClients idle;
  const auto capacity = static_cast<std::int64_t>(
      ProfiledIops(c) * haechi::ToSeconds(c.qos.period));
  const std::int64_t reservation =
      std::max<std::int64_t>(capacity / 2 / static_cast<std::int64_t>(clients),
                             1);
  for (std::size_t i = 0; i < clients; ++i) {
    rdma::QueuePair& server_qp = idle.Add(rig);
    const auto admitted = monitor.AdmitClient(
        MakeClientId(static_cast<std::uint32_t>(i)), reservation, 0,
        server_qp);
    HAECHI_ASSERT(admitted.ok());
  }
  monitor.Start(0);
  rig.simulator.RunUntil(c.qos.period);
  return MedianBatchNs([&] {
    const std::uint64_t before = monitor.stats().checks;
    const double start = HostSeconds();
    rig.simulator.RunUntil(rig.simulator.Now() + Millis(2000));
    return (HostSeconds() - start) * 1e9 /
           static_cast<double>(monitor.stats().checks - before);
  });
}

/// ClientQosEngine Submit -> done through a KvClient GET backend, one
/// request in flight, on a standalone monitor/engine pair.
double EngineSubmitNs(const haechi::harness::ExperimentConfig& c,
                      std::uint64_t seed) {
  Rig rig(c.net, c.records, seed);
  core::QosMonitor monitor(rig.simulator, c.qos, rig.server, ProfiledIops(c),
                           ProfiledLocalIops(c));
  auto& qos_cq = rig.client.CreateCq();
  auto [qos_qp, qos_server_qp] = rig.Connect(qos_cq);
  (void)qos_server_qp;
  auto& ctrl_recv_cq = rig.client.CreateCq();
  auto [ctrl_qp, ctrl_server_qp] = rig.Connect(ctrl_recv_cq);
  auto& data_cq = rig.client.CreateCq();
  auto [data_qp, data_server_qp] = rig.Connect(data_cq);
  (void)data_server_qp;
  kvstore::KvClient kv(rig.client, *data_qp, rig.store.view(), {});
  // Half of what one client may reserve (the local capacity bound).
  const auto reservation = static_cast<std::int64_t>(
      std::min(ProfiledIops(c), ProfiledLocalIops(c)) *
      haechi::ToSeconds(c.qos.period) / 2);
  const auto id = MakeClientId(0);
  const auto wiring =
      monitor.AdmitClient(id, reservation, 0, *ctrl_server_qp);
  HAECHI_ASSERT(wiring.ok());
  core::ClientQosEngine engine(rig.simulator, id, c.qos, rig.client, *qos_qp,
                               *ctrl_qp, wiring.value());
  engine.SetIoBackend([&kv](std::uint64_t key, bool,
                            core::ClientQosEngine::CompleteFn done) {
    return kv.GetOneSided(
        key, [done = std::move(done)](const kvstore::KvClient::Completion&) {
          done();
        });
  });
  monitor.Start(0);
  rig.simulator.RunUntil(Millis(2));
  bool done = false;
  Rng rng(seed);
  return MedianBatchNs([&] {
    return TimeOps(5000, [&](std::size_t) {
      done = false;
      const haechi::Status submitted = engine.Submit(
          rng.NextBelow(c.records), [&done] { done = true; });
      HAECHI_ASSERT(submitted.ok());
      rig.RunUntil(done);
    });
  });
}

// --- runtime ----------------------------------------------------------------

struct AcquireNs {
  double p50 = 0;
  double p99 = 0;
};

/// ThreadedEngine::TryAcquireBatch host ns per granted batch, from a
/// benchmark-owned worker pool shaped like the threaded workload (clients,
/// workers, shards, fetch batch); each call is bracketed by two clock reads.
AcquireNs TryAcquireNs(const haechi::harness::ExperimentConfig& c) {
  rt::Clock clock;
  rt::ThreadedFabric fabric(clock, c.records,
                            static_cast<std::size_t>(c.qos.pool_shards));
  rt::ThreadedMonitor monitor(clock, nullptr, c.qos, fabric,
                              c.profiled_global_iops, c.profiled_local_iops);
  std::vector<std::unique_ptr<rt::ThreadedEngine>> engines;
  for (std::size_t i = 0; i < c.clients.size(); ++i) {
    const auto id = MakeClientId(static_cast<std::uint32_t>(i));
    const auto wiring =
        monitor.AdmitClient(id, c.clients[i].reservation, 0);
    HAECHI_ASSERT(wiring.ok());
    engines.push_back(std::make_unique<rt::ThreadedEngine>(
        clock, nullptr, id, c.qos, fabric, wiring.value().slot,
        wiring.value().slot));
    const haechi::Status bound = monitor.BindEngine(id, engines.back().get());
    HAECHI_ASSERT(bound.ok());
  }
  const std::size_t workers = std::max<std::size_t>(c.runtime_workers, 1);
  std::vector<haechi::stats::Histogram> histograms(workers);
  std::atomic<bool> stop{false};
  monitor.Start();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = w; i < engines.size(); i += workers) {
          rt::ThreadedEngine& engine = *engines[i];
          const std::uint32_t period = engine.CurrentPeriod();
          if (period == 0) continue;
          const SimTime start = clock.Now();
          const rt::ThreadedEngine::Batch batch =
              engine.TryAcquireBatch(period, 64);
          const SimTime end = clock.Now();
          if (batch.status == rt::ThreadedEngine::Grant::kToken) {
            histograms[w].Record(end - start);
            engine.OnIoCompleted(batch.count);
          }
        }
      }
    });
  }
  clock.SleepFor(Millis(800));
  stop = true;
  for (auto& thread : threads) thread.join();
  monitor.Stop();
  for (auto& engine : engines) engine->Stop();
  for (std::size_t w = 1; w < workers; ++w) histograms[0].Merge(histograms[w]);
  return {static_cast<double>(histograms[0].Percentile(50)),
          static_cast<double>(histograms[0].Percentile(99))};
}

/// ThreadedFabric::PostRecordRead of one 4 KB record.
double RecordReadNs(const haechi::harness::ExperimentConfig& c,
                    std::uint64_t seed) {
  rt::Clock clock;
  rt::ThreadedFabric fabric(clock, c.records,
                            static_cast<std::size_t>(c.qos.pool_shards));
  std::vector<std::byte> buffer(rt::SharedRegion::kRecordBytes);
  Rng rng(seed);
  return MedianBatchNs([&] {
    return TimeOps(200000, [&](std::size_t) {
      fabric.PostRecordRead(0, rng.NextBelow(c.records),
                            std::span<std::byte>(buffer));
    });
  });
}

// --- obs --------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-stage mean and p99.9 in simulated us over the assembled spans. The
/// means add up to the mean span, so they attribute it; the admit stage is
/// left out because the simulator admits in the queuing event (always 0).
void SpanMetrics(JsonObject& m, const std::vector<haechi::obs::IoSpan>& spans) {
  static constexpr const char* kStages[haechi::obs::kSpanStages] = {
      "admit", "token_fetch", "convert_wait", "queue", "nic_service"};
  for (std::size_t s = 1; s < haechi::obs::kSpanStages; ++s) {
    std::vector<double> values;
    values.reserve(spans.size());
    double sum = 0;
    for (const auto& span : spans) {
      values.push_back(static_cast<double>(span.stage_ns[s]) / 1e3);
      sum += values.back();
    }
    const std::string stage = kStages[s];
    m.Num("span." + stage + "_mean_us",
          Ratio(sum, static_cast<double>(values.size())));
    m.Num("span." + stage + "_p999_us", Quantile(values, 0.999));
  }
}

/// The workload cut to its warm-up plus the fewest measured periods that
/// still give the audit and the span tails whole periods to work on.
Workload Shortened(const Workload& w) {
  Workload brief = w;
  if (w.runtime == Runtime::kCluster) {
    brief.cluster.measure_periods = 2;
  } else if (w.runtime == Runtime::kThreads) {
    brief.single.warmup = w.single.qos.period;
    brief.single.measure_periods = 1;
  } else {
    brief.single.measure_periods = 2;
  }
  return brief;
}

}  // namespace

int RunLayers(const Workload& w, std::uint64_t seed) {
  const bool simulated = w.runtime != Runtime::kThreads;
  RunOptions plain;
  if (w.runtime == Runtime::kCluster) plain.rebalance_calls = 1000;
  const Outcome untraced = RunOnce(w, plain);
  // Detail tracing keeps every event in memory, so the traced run and its
  // untraced twin (the overhead baseline) are a shortened workload.
  const Workload brief = Shortened(w);
  const Outcome twin = RunOnce(brief);
  RunOptions traced_options;
  traced_options.traced = true;
  traced_options.queue_sample_every = simulated ? 64 : 0;
  Outcome traced = RunOnce(brief, traced_options);

  const double audit_start = HostSeconds();
  const haechi::obs::AuditReport audit = haechi::obs::AuditTrace(traced.trace);
  const double audit_s = HostSeconds() - audit_start;
  const int audit_first_failed = haechi::obs::FirstFailedCheck(audit);
  const std::size_t trace_events = traced.trace.size();
  traced.trace = {};

  // Layers a workload does not run are probed with the workload that does.
  const haechi::harness::ExperimentConfig node_config =
      w.runtime == Runtime::kCluster
          ? MakeWorkload("sim_paper_zipf", seed).value().single
          : w.single;
  const Workload threads_ref =
      w.runtime == Runtime::kThreads
          ? w
          : MakeWorkload("threads_machine_cap", seed).value();
  std::vector<double> rebalance_ns = untraced.rebalance_ns;
  if (w.runtime != Runtime::kCluster) {
    Workload cluster_ref = MakeWorkload("sim_cluster_skew", seed).value();
    cluster_ref.cluster.warmup = haechi::Seconds(1);
    cluster_ref.cluster.measure_periods = 1;
    RunOptions options;
    options.rebalance_calls = 1000;
    rebalance_ns = RunOnce(cluster_ref, options).rebalance_ns;
  }

  const auto& u = untraced;
  const double kio = static_cast<double>(u.completed_total) / 1e3;
  JsonObject m;
  // sim
  m.Num("sim.events_per_io",
        Ratio(static_cast<double>(u.events_run),
              static_cast<double>(u.completed_total)))
      .Num("sim.host_ns_per_event",
           simulated ? Ratio(u.run_host_s * 1e9,
                             static_cast<double>(u.events_run))
                     : TimerEventNs(w.Clients()))
      .Num("sim.queue_depth_mean", traced.queue_depth_mean)
      .Int("sim.queue_depth_max",
           static_cast<std::int64_t>(traced.queue_depth_max))
      .Num("sim.queue_churn_ns",
           QueueChurnNs(simulated ? std::max<std::size_t>(
                                        static_cast<std::size_t>(std::lround(
                                            traced.queue_depth_mean)),
                                        1)
                                  : 64,
                        seed));
  // net
  m.Num("net.data_nic_busy_frac", Ratio(u.data_nic_busy_s, u.sim_time_s))
      .Num("net.items_per_io",
           Ratio(static_cast<double>(u.station_items),
                 static_cast<double>(u.completed_total)))
      .Num("net.station_ns_per_item", StationNsPerItem(w.Clients(), seed));
  // rdma and kvstore
  m.Num("rdma.ops_per_io", Ratio(static_cast<double>(u.ops_delivered),
                                 static_cast<double>(u.completed_total)))
      .Num("rdma.read_post_to_cq_ns",
           PostToCqNs(node_config.net, node_config.records, false, seed))
      .Num("rdma.write_post_to_cq_ns",
           PostToCqNs(node_config.net, node_config.records, true, seed))
      .Num("kv.get_ns", KvNs(node_config.net, node_config.records, false, seed))
      .Num("kv.put_ns", KvNs(node_config.net, node_config.records, true, seed));
  // core: engine
  m.Num("engine.faa_per_kio", Ratio(static_cast<double>(u.faa_ops), kio))
      .Num("engine.faa_yield",
           Ratio(static_cast<double>(u.tokens_from_pool),
                 static_cast<double>(u.faa_ops) *
                     static_cast<double>(u.token_batch)))
      .Num("engine.pool_token_share",
           Ratio(static_cast<double>(u.tokens_from_pool),
                 static_cast<double>(u.tokens_from_pool +
                                     u.tokens_from_reservation)))
      .Num("engine.reports_per_kio",
           Ratio(static_cast<double>(u.report_writes), kio))
      .Int("engine.rejected_submits",
           static_cast<std::int64_t>(u.rejected_submits))
      .Int("engine.faa_failures", static_cast<std::int64_t>(u.faa_failures))
      .Num("engine.submit_ns", EngineSubmitNs(node_config, seed));
  // core: monitor and capacity estimator
  double over_served = 0;
  for (const auto& [estimate, completions] : u.capacity) {
    over_served += Ratio(static_cast<double>(estimate),
                         static_cast<double>(completions));
  }
  m.Int("monitor.checks", static_cast<std::int64_t>(u.checks))
      .Int("monitor.conversions", static_cast<std::int64_t>(u.conversions))
      .Int("monitor.report_signals",
           static_cast<std::int64_t>(u.report_signals))
      .Int("monitor.lease_expirations",
           static_cast<std::int64_t>(u.lease_expirations))
      .Num("monitor.check_tick_ns_n10", CheckTickNs(node_config, 10, seed))
      .Num("monitor.check_tick_ns_n60", CheckTickNs(node_config, 60, seed))
      .Num("capacity.estimate_over_served",
           Ratio(over_served, static_cast<double>(u.capacity.size())));
  // cluster
  m.Int("cluster.rebalances", static_cast<std::int64_t>(u.rebalances))
      .Int("cluster.tokens_moved", static_cast<std::int64_t>(u.tokens_moved))
      .Int("cluster.borrowed_tokens", u.borrow_granted)
      .Int("cluster.borrow_outstanding_end", u.borrow_outstanding)
      .Num("cluster.rebalance_ns", Quantile(rebalance_ns, 0.5));
  // runtime
  const AcquireNs acquire = TryAcquireNs(threads_ref.single);
  m.Num("runtime.try_acquire_ns_p50", acquire.p50)
      .Num("runtime.try_acquire_ns_p99", acquire.p99)
      .Num("runtime.record_read_ns", RecordReadNs(threads_ref.single, seed))
      .Num("runtime.ios_per_batch",
           Ratio(static_cast<double>(u.runtime_ios),
                 static_cast<double>(u.batches)))
      .Num("runtime.idle_sleeps_per_kio",
           Ratio(static_cast<double>(u.idle_sleeps),
                 static_cast<double>(u.runtime_ios) / 1e3))
      .Num("runtime.faa_dry_probe_ratio",
           Ratio(static_cast<double>(u.faa_dry_probes),
                 static_cast<double>(u.faa_home_hits + u.faa_steals +
                                     u.faa_dry_probes)))
      .Num("runtime.faa_steal_ratio",
           Ratio(static_cast<double>(u.faa_steals),
                 static_cast<double>(u.faa_home_hits + u.faa_steals)))
      .Int("runtime.report_write_retries",
           static_cast<std::int64_t>(u.report_write_retries));
  // obs
  SpanMetrics(m, traced.spans);
  // Host time per completed I/O, traced over untraced. The threaded runs
  // last a fixed wall time, so there the cost shows as fewer I/Os.
  const double overhead =
      simulated
          ? Ratio(traced.run_host_s, twin.run_host_s) - 1
          : Ratio(static_cast<double>(twin.completed_total),
                  static_cast<double>(traced.completed_total)) -
                1;
  m.Num("obs.trace_overhead_pct", overhead * 100)
      .Num("obs.trace_events_per_io",
           Ratio(static_cast<double>(traced.trace_emitted),
                 static_cast<double>(traced.completed_total)))
      .Int("obs.trace_dropped_events",
           static_cast<std::int64_t>(traced.trace_dropped))
      .Num("obs.audit_events_per_s",
           Ratio(static_cast<double>(trace_events), audit_s));
  // Submit->complete latency: the harness histogram on the single-node
  // simulator, span totals on the cluster, none on threads.
  std::int64_t latency_samples = 0;
  double p50_us = 0;
  double p999_us = 0;
  if (w.runtime == Runtime::kSim) {
    latency_samples = static_cast<std::int64_t>(u.latency_count);
    p50_us = static_cast<double>(u.latency_p50_ns) / 1e3;
    p999_us = static_cast<double>(u.latency_p999_ns) / 1e3;
  } else if (w.runtime == Runtime::kCluster) {
    std::vector<double> totals;
    for (const auto& span : traced.spans) {
      totals.push_back(static_cast<double>(span.Total()) / 1e3);
    }
    latency_samples = static_cast<std::int64_t>(totals.size());
    p50_us = Quantile(totals, 0.5);
    p999_us = Quantile(totals, 0.999);
  }
  m.Num("io.p50_us", p50_us)
      .Num("io.p999_us", p999_us)
      .Int("io.latency_samples", latency_samples);

  // Tracing must not perturb a simulation (threaded runs never repeat).
  const bool trace_neutral = traced.completed == twin.completed &&
                             traced.events_run == twin.events_run;
  JsonObject checks;
  checks.Int("audit_first_failed", audit_first_failed)
      .Int("audit_violations",
           static_cast<std::int64_t>(audit.violations.size()))
      .Int("trace_events", static_cast<std::int64_t>(trace_events))
      .Int("trace_dropped", static_cast<std::int64_t>(traced.trace_dropped))
      .Int("span_count", static_cast<std::int64_t>(traced.spans.size()))
      .Bool("trace_neutral", trace_neutral)
      .Int("lease_expirations", static_cast<std::int64_t>(u.lease_expirations))
      .Int("attempted", u.completed_total +
                            static_cast<std::int64_t>(u.rejected_submits) +
                            u.errored + u.queued_end)
      .Int("failed", static_cast<std::int64_t>(u.rejected_submits) + u.errored);
  JsonObject out;
  out.Str("workload", w.name)
      .Int("seed", static_cast<std::int64_t>(seed))
      .Str("runtime", RuntimeName(w.runtime))
      .Object("checks", checks)
      .Object("metrics", m);
  out.Print();
  return 0;
}

}  // namespace perfbench
