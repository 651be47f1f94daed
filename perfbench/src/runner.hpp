// One run of a workload through its public harness, reduced to the facts
// the benchmark reports. The harness object is gone when RunOnce returns;
// everything later arithmetic needs is copied out here.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host seconds on a monotonic clock.
double HostSeconds();

/// Peak resident set of this process so far, in KiB, less the reference
/// probes' tables (resident from the first probe on).
std::int64_t PeakRssKb();

/// Host seconds a fixed reference loop shaped like the workload's host load
/// takes right now. Simulators: a miniature event loop (heap of timed
/// closures, each reading a random word of a 64 MiB table), one thread.
/// Threads: one thread per runtime worker copying random 4 KiB records out
/// of a 64 MiB region. The probes share no code with the system; timing one
/// next to each repeat measures how fast the shared host runs at that
/// moment (README.md, "Calibrated host time").
double ProbeSeconds(const Workload& workload);

struct RunOptions {
  /// Install the flight recorder with per-I/O detail events and keep the
  /// merged stream (and assembled spans) in the outcome.
  bool traced = false;
  /// Sample Simulator::PendingEvents every this many events (0 = off).
  std::uint64_t queue_sample_every = 0;
  /// Cluster runs: time this many ClusterCoordinator::Rebalance calls on
  /// the finished run's coordinator (0 = off).
  std::size_t rebalance_calls = 0;
};

struct Outcome {
  // --- host time --------------------------------------------------------
  /// Construction of the harness to its first simulated event (threads:
  /// Run() wall time beyond the scheduled warm-up and measured periods).
  double setup_s = 0;
  /// Host seconds of the run after set-up.
  double run_host_s = 0;

  // --- service ----------------------------------------------------------
  /// completed[period][client]: I/Os served per measured period.
  std::vector<std::vector<std::int64_t>> completed;
  std::int64_t measured_ios = 0;
  /// Length of the measured window on the system's own clock.
  double measured_s = 0;
  /// I/Os completed over the whole run (warm-up included).
  std::int64_t completed_total = 0;
  /// Per client: submits the engine refused. A client with any refused
  /// submit misses its reservation in every measured period.
  std::vector<std::int64_t> refused;
  /// I/Os that ended in an error (fabric fault counters; the cluster and
  /// threaded harnesses have no error path). Not attributable per client.
  std::int64_t errored = 0;
  /// Requests still queued in the engines when the run ended.
  std::int64_t queued_end = 0;

  // --- submit->complete latency (single-node simulator only) -------------
  std::uint64_t latency_count = 0;
  std::int64_t latency_p50_ns = 0;
  std::int64_t latency_p999_ns = 0;
  double latency_mean_ns = 0;

  // --- simulator ----------------------------------------------------------
  std::uint64_t events_run = 0;
  double sim_time_s = 0;
  double queue_depth_mean = 0;
  std::uint64_t queue_depth_max = 0;

  // --- fabric (single-node simulator only) --------------------------------
  std::uint64_t ops_delivered = 0;
  std::uint64_t station_items = 0;
  double data_nic_busy_s = 0;

  // --- engines (summed) ---------------------------------------------------
  std::int64_t token_batch = 0;  // tokens one FAA draws
  std::uint64_t faa_ops = 0;
  std::uint64_t report_writes = 0;
  std::uint64_t rejected_submits = 0;
  std::uint64_t faa_failures = 0;
  std::int64_t tokens_from_pool = 0;
  std::int64_t tokens_from_reservation = 0;

  // --- monitors (summed over nodes) ---------------------------------------
  std::uint64_t checks = 0;
  std::uint64_t conversions = 0;
  std::uint64_t report_signals = 0;
  std::uint64_t lease_expirations = 0;
  /// (estimate, completions) per monitor period after warm-up.
  std::vector<std::pair<std::int64_t, std::int64_t>> capacity;

  // --- cluster ------------------------------------------------------------
  std::uint64_t rebalances = 0;
  std::uint64_t tokens_moved = 0;
  std::int64_t borrow_granted = 0;
  std::int64_t borrow_repaid = 0;
  std::int64_t borrow_outstanding = 0;
  std::vector<double> rebalance_ns;

  // --- threaded runtime ---------------------------------------------------
  std::uint64_t batches = 0;
  std::uint64_t runtime_ios = 0;
  std::uint64_t idle_sleeps = 0;
  std::uint64_t faa_home_hits = 0;
  std::uint64_t faa_steals = 0;
  std::uint64_t faa_dry_probes = 0;
  std::uint64_t report_write_retries = 0;
  /// Per-period ledger identity violations (closed, non-crashed periods).
  std::int64_t ledger_violations = 0;
  std::int64_t ledger_periods = 0;

  // --- trace (RunOptions::traced) -----------------------------------------
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<haechi::obs::TraceEvent> trace;
  std::vector<haechi::obs::IoSpan> spans;
};

Outcome RunOnce(const Workload& workload, const RunOptions& options = {});

}  // namespace perfbench
