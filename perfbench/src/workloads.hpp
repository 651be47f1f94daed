// The benchmark's four workloads, generated from a seed.
//
// Each workload is a harness config built here from (name, seed); the
// system under test only ever sees the finished config. Validate() runs
// before any harness object exists, so an inadmissible config fails with a
// named error instead of an assertion deep inside the harness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

enum class Runtime { kSim, kCluster, kThreads };

/// "sim", "cluster" or "threads".
const char* RuntimeName(Runtime runtime);

struct Workload {
  std::string name;
  Runtime runtime = Runtime::kSim;
  /// Sim runtimes: the fabric's capacity scale, by which served KIOPS are
  /// normalised back to full scale. 1 on threads (wall clock, no model).
  double capacity_scale = 1.0;
  /// Used by kSim and kThreads.
  haechi::harness::ExperimentConfig single;
  /// Used by kCluster.
  haechi::harness::ClusterExperimentConfig cluster;
  /// Per-client demand per period (cluster: summed over nodes); 0 means
  /// unlimited (threads clients issue as fast as tokens allow).
  std::vector<std::int64_t> demands;

  [[nodiscard]] std::size_t Clients() const {
    return runtime == Runtime::kCluster ? cluster.clients.size()
                                        : single.clients.size();
  }
  [[nodiscard]] haechi::SimDuration Period() const {
    return runtime == Runtime::kCluster ? cluster.qos.period
                                        : single.qos.period;
  }
  [[nodiscard]] std::size_t MeasurePeriods() const {
    return runtime == Runtime::kCluster ? cluster.measure_periods
                                        : single.measure_periods;
  }
};

/// Knobs the workloads are built from. Defaults are the benchmark's
/// workloads; the overrides exist so tests can build inadmissible configs.
struct Shape {
  std::size_t clients = 0;           // 0: the workload's own count
  std::int64_t reserve_permille = 0;  // 0: the workload's own share
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed`; fails on an unknown name or a
/// config Validate() rejects.
haechi::Result<Workload> MakeWorkload(std::string_view name,
                                      std::uint64_t seed,
                                      const Shape& shape = {});

/// Checks what the harness would otherwise assert on: the monitor's client
/// slots, admission feasibility (aggregate and per-client local capacity),
/// and limit >= reservation.
haechi::Status Validate(const Workload& workload);

/// Parses a decimal seed; rejects empty, signed, non-digit or overflowing
/// text.
haechi::Result<std::uint64_t> ParseSeed(std::string_view text);

}  // namespace perfbench
