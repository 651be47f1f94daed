#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/borrow.hpp"
#include "common/rng.hpp"
#include "core/admission.hpp"
#include "runtime/shared_region.hpp"
#include "workload/distributions.hpp"

namespace perfbench {
namespace {

using haechi::Millis;
using haechi::Seconds;
using haechi::SimDuration;
using haechi::harness::ClientSpec;
using haechi::workload::RequestPattern;

// Sizes of the simulated workloads. The fabric model runs at this fraction
// of the paper's hardware; served KIOPS are normalised back to full scale.
constexpr double kSimScale = 0.02;
constexpr std::size_t kSimMeasurePeriods = 8;

// The threaded workload's clients issue as fast as the host allows; its
// profiled capacity is far above what any host serves, so the machine, not
// the token pool, caps throughput.
constexpr double kThreadsProfiledIops = 50e6;
constexpr double kThreadsReservedIops = 100e3;  // per client

std::int64_t IopsToTokens(double iops, SimDuration period) {
  return static_cast<std::int64_t>(
      std::llround(iops * haechi::ToSeconds(period)));
}

std::int64_t CapacityTokens(const haechi::harness::ExperimentConfig& config) {
  const double iops = config.profiled_global_iops > 0
                          ? config.profiled_global_iops
                          : config.net.GlobalCapacityIops();
  return IopsToTokens(iops, config.qos.period);
}

void AddClient(haechi::harness::ExperimentConfig& config,
               std::int64_t reservation, std::int64_t demand,
               RequestPattern pattern, double write_fraction = 0.0) {
  ClientSpec spec;
  spec.reservation = reservation;
  spec.demand = demand;
  spec.pattern = pattern;
  spec.write_fraction = write_fraction;
  config.clients.push_back(spec);
}

// Experiment 2A (fig09): 10 clients, Zipf reservations summing to 90% of
// capacity, open-loop demand = reservation + initial pool, uniform reads.
Workload SimPaperZipf(std::uint64_t seed, const Shape& shape) {
  Workload w;
  w.runtime = Runtime::kSim;
  auto& c = w.single;
  c.net.capacity_scale = w.capacity_scale = kSimScale;
  c.warmup = Seconds(1);
  c.measure_periods = kSimMeasurePeriods;
  c.seed = seed;
  c.qos.token_batch = 1000;
  const std::size_t n = shape.clients > 0 ? shape.clients : 10;
  const std::int64_t cap = CapacityTokens(c);
  const std::int64_t permille =
      shape.reserve_permille > 0 ? shape.reserve_permille : 900;
  const std::int64_t reserved = cap * permille / 1000;
  const std::int64_t pool = std::max<std::int64_t>(cap - reserved, 0);
  const auto reservations =
      n % 5 == 0 ? haechi::workload::ZipfGroupShare(reserved, n, 5, 0.6)
                 : haechi::workload::UniformShare(reserved, n);
  for (const std::int64_t r : reservations) {
    AddClient(c, r, r + pool, RequestPattern::kOpenLoop);
  }
  return w;
}

// 60 clients, Zipf reservations summing to 70% of capacity. A quarter of
// them under-use (demand = half the reservation), so token conversion runs;
// the rest over-demand. The under-users are spread evenly over the Zipf
// groups and the seed picks them within each group, so every seed offers
// the same total demand. Constant-rate, 50% writes, Zipfian keys, B = 10 —
// the engine/monitor and WRITE-path load.
Workload SimControlMix(std::uint64_t seed, const Shape& shape) {
  Workload w;
  w.runtime = Runtime::kSim;
  auto& c = w.single;
  c.net.capacity_scale = w.capacity_scale = kSimScale;
  c.warmup = Seconds(1);
  c.measure_periods = kSimMeasurePeriods;
  c.seed = seed;
  c.qos.token_batch = 10;
  c.key_kind = haechi::workload::KeyChooser::Kind::kZipfian;
  c.key_theta = 0.99;
  const std::size_t n = shape.clients > 0 ? shape.clients : 60;
  const std::size_t groups = n % 10 == 0 ? 10 : 1;
  const std::int64_t cap = CapacityTokens(c);
  const std::int64_t permille =
      shape.reserve_permille > 0 ? shape.reserve_permille : 700;
  const auto reservations = haechi::workload::ZipfGroupShare(
      cap * permille / 1000, n, groups, 0.6);
  const std::size_t per_group = n / groups;
  const std::size_t under_total = n / 4;
  haechi::Rng rng(seed ^ 0x5EEDC0DEULL);
  std::vector<bool> under(n, false);
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<std::size_t> members(per_group);
    std::iota(members.begin(), members.end(), g * per_group);
    for (std::size_t i = per_group; i > 1; --i) {
      std::swap(members[i - 1], members[rng.NextBelow(i)]);
    }
    const std::size_t quota =
        under_total * (g + 1) / groups - under_total * g / groups;
    for (std::size_t k = 0; k < quota; ++k) under[members[k]] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t r = reservations[i];
    AddClient(c, r, under[i] ? r / 2 : r * 3 / 2,
              RequestPattern::kConstantRate, /*write_fraction=*/0.5);
  }
  return w;
}

// The ext_cluster_borrow shape: 2 data nodes, four strictly provisioned
// residents admitted first, then two managed clients whose demand is
// skewed 95/5 across the nodes, with adaptive borrowing.
Workload SimClusterSkew(std::uint64_t seed, const Shape& shape) {
  Workload w;
  w.runtime = Runtime::kCluster;
  auto& c = w.cluster;
  c.net.capacity_scale = w.capacity_scale = kSimScale;
  c.data_nodes = 2;
  c.warmup = Seconds(2);
  c.measure_periods = kSimMeasurePeriods;
  c.qos.token_batch = 100;
  c.seed = seed;
  const auto cap = static_cast<std::int64_t>(c.net.GlobalCapacityIops() *
                                             haechi::ToSeconds(c.qos.period));
  const std::size_t residents = shape.clients > 2 ? shape.clients - 2 : 4;
  const std::int64_t permille =
      shape.reserve_permille > 0 ? shape.reserve_permille : 650;
  // Residents take 40/65 of the reserved share, managed clients 25/65.
  const std::int64_t resident_r =
      cap * permille * 40 / 65 / 1000 / static_cast<std::int64_t>(residents);
  const std::int64_t managed_r = cap * permille * 25 / 65 / 1000 / 2;
  for (std::size_t i = 0; i < residents; ++i) {
    haechi::harness::ClusterClientSpec resident;
    resident.tenant = 1;
    resident.reservation = resident_r;
    resident.limit = resident_r;
    resident.demand_per_node = {cap, 0};
    c.clients.push_back(resident);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    haechi::harness::ClusterClientSpec managed;
    managed.tenant = 0;
    managed.reservation = managed_r;
    const std::int64_t demand = managed_r * 16 / 10;
    managed.demand_per_node = {demand * 95 / 100, demand - demand * 95 / 100};
    c.clients.push_back(managed);
  }
  std::int64_t managed_total = 0;
  std::int64_t resident_total = 0;
  for (const auto& client : c.clients) {
    (client.tenant == 0 ? managed_total : resident_total) +=
        client.reservation;
  }
  c.tenants = {{managed_total, 0}, {resident_total, 0}};
  c.cluster.borrow.policy = haechi::cluster::BorrowPolicy::kAdaptive;
  c.cluster.dry_watermark = c.qos.token_batch * 5;
  c.cluster.lender_floor = c.qos.token_batch * 10;
  c.cluster.borrow.quota = cap / 20;
  c.cluster.borrow.min_quota = c.qos.token_batch;
  c.cluster.borrow.max_quota = cap / 4;
  return w;
}

// ThreadedExperiment: 4 clients on 2 workers, 4 pool shards, fetch batch 8,
// unlimited demand against a profiled capacity no host reaches.
Workload ThreadsMachineCap(std::uint64_t seed, const Shape& shape) {
  Workload w;
  w.runtime = Runtime::kThreads;
  auto& c = w.single;
  c.qos.period = Millis(200);
  c.warmup = Millis(400);
  c.measure_periods = 10;
  c.seed = seed;
  c.runtime_workers = 2;
  c.qos.pool_shards = 4;
  c.qos.fetch_batch = 8;
  c.profiled_global_iops = kThreadsProfiledIops;
  c.profiled_local_iops = kThreadsProfiledIops;
  const std::size_t n = shape.clients > 0 ? shape.clients : 4;
  const double per_client =
      shape.reserve_permille > 0
          ? kThreadsProfiledIops * static_cast<double>(shape.reserve_permille) /
                1000.0 / static_cast<double>(n)
          : kThreadsReservedIops;
  for (std::size_t i = 0; i < n; ++i) {
    AddClient(c, IopsToTokens(per_client, c.qos.period), 0,
              RequestPattern::kOpenLoop);
  }
  return w;
}

}  // namespace

const char* RuntimeName(Runtime runtime) {
  switch (runtime) {
    case Runtime::kSim:
      return "sim";
    case Runtime::kCluster:
      return "cluster";
    case Runtime::kThreads:
      return "threads";
  }
  return "";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "sim_paper_zipf", "sim_control_mix", "sim_cluster_skew",
      "threads_machine_cap"};
  return kNames;
}

haechi::Result<Workload> MakeWorkload(std::string_view name,
                                      std::uint64_t seed,
                                      const Shape& shape) {
  Workload w;
  if (name == "sim_paper_zipf") {
    w = SimPaperZipf(seed, shape);
  } else if (name == "sim_control_mix") {
    w = SimControlMix(seed, shape);
  } else if (name == "sim_cluster_skew") {
    w = SimClusterSkew(seed, shape);
  } else if (name == "threads_machine_cap") {
    w = ThreadsMachineCap(seed, shape);
  } else {
    return haechi::ErrInvalidArgument("unknown workload '" +
                                      std::string(name) + "'");
  }
  w.name = std::string(name);
  if (w.runtime == Runtime::kCluster) {
    for (const auto& client : w.cluster.clients) {
      w.demands.push_back(std::accumulate(client.demand_per_node.begin(),
                                          client.demand_per_node.end(),
                                          std::int64_t{0}));
    }
  } else {
    for (const auto& client : w.single.clients) {
      w.demands.push_back(client.demand);
    }
  }
  if (const haechi::Status valid = Validate(w); !valid.ok()) return valid;
  return w;
}

haechi::Status Validate(const Workload& w) {
  constexpr std::size_t kSlots = haechi::runtime::SharedRegion::kMaxClients;
  const std::size_t n = w.Clients();
  if (n == 0) return haechi::ErrInvalidArgument("workload has no clients");
  if (n > kSlots) {
    return haechi::ErrOutOfRange(
        "too_many_clients: " + std::to_string(n) +
        " clients exceed the monitor's " + std::to_string(kSlots) +
        " report slots");
  }
  std::int64_t global_tokens = 0;
  std::int64_t local_tokens = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> specs;  // (R, L)
  if (w.runtime == Runtime::kCluster) {
    const auto& c = w.cluster;
    global_tokens = IopsToTokens(c.net.GlobalCapacityIops(), c.qos.period);
    local_tokens = IopsToTokens(c.net.LocalCapacityIops(), c.qos.period);
    for (const auto& client : c.clients) {
      if (client.tenant >= c.tenants.size()) {
        return haechi::ErrInvalidArgument("client names an unknown tenant");
      }
      if (client.demand_per_node.size() != c.data_nodes) {
        return haechi::ErrInvalidArgument(
            "client demand does not cover every data node");
      }
      specs.emplace_back(client.reservation, 0);
    }
  } else {
    const auto& c = w.single;
    global_tokens = CapacityTokens(c);
    local_tokens = IopsToTokens(c.profiled_local_iops > 0
                                    ? c.profiled_local_iops
                                    : c.net.LocalCapacityIops(),
                                c.qos.period);
    for (const auto& client : c.clients) {
      specs.emplace_back(client.reservation, client.limit);
    }
  }
  haechi::core::AdmissionController admission(global_tokens, local_tokens);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [reservation, limit] = specs[i];
    if (reservation <= 0) {
      return haechi::ErrInvalidArgument(
          "infeasible_reservations: client " + std::to_string(i) +
          " has a non-positive reservation");
    }
    if (limit > 0 && limit < reservation) {
      return haechi::ErrInvalidArgument(
          "infeasible_reservations: client " + std::to_string(i) +
          " has limit < reservation");
    }
    const haechi::Status admitted = admission.Admit(
        haechi::MakeClientId(static_cast<std::uint32_t>(i)), reservation);
    if (!admitted.ok()) {
      return haechi::ErrOutOfRange("infeasible_reservations: client " +
                                   std::to_string(i) + ": " +
                                   admitted.ToString());
    }
  }
  return haechi::Status::Ok();
}

haechi::Result<std::uint64_t> ParseSeed(std::string_view text) {
  if (text.empty() || text.size() > 19 ||
      !std::all_of(text.begin(), text.end(),
                   [](char ch) { return ch >= '0' && ch <= '9'; })) {
    return haechi::ErrInvalidArgument("bad_seed: '" + std::string(text) +
                                      "' is not a decimal integer below 1e19");
  }
  std::uint64_t value = 0;
  for (const char ch : text) {
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return value;
}

}  // namespace perfbench
