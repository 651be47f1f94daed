// haechi_perfbench: runs one benchmark workload through the public harness
// APIs and prints one JSON line of raw facts (perfbench/run.py turns them
// into metrics and checks them).
//
//   haechi_perfbench run    --workload=NAME --seed=N [--seconds=S]
//                           [--clients=N] [--reserve-permille=P]
//   haechi_perfbench layers --workload=NAME --seed=N
//
// `run` executes the workload with tracing off, again and again in this
// process until S seconds have passed (at least three times; once when S
// is 0 or absent), and prints one JSON line per repeat. `layers` executes it
// untraced and traced, audits the trace, and times calls into each layer's
// public functions; it prints per-layer metrics. An invalid config or seed
// exits 2 with a named error before any harness object is built.
#include <cstdio>
#include <string>
#include <string_view>

#include "json.hpp"
#include "layers.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// A timed run repeats the workload at least this often.
constexpr int kMinRepeats = 3;

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "haechi_perfbench: %s\n"
               "usage: haechi_perfbench {run|layers} --workload=NAME "
               "--seed=N [--seconds=S] [--clients=N] "
               "[--reserve-permille=P]\n",
               error.c_str());
  return 2;
}

JsonObject RunRecord(const Workload& w, std::uint64_t seed, const Outcome& o,
                     double probe_s) {
  std::vector<std::int64_t> reservations;
  if (w.runtime == Runtime::kCluster) {
    for (const auto& c : w.cluster.clients) {
      reservations.push_back(c.reservation);
    }
  } else {
    for (const auto& c : w.single.clients) {
      reservations.push_back(c.reservation);
    }
  }
  // Everything a same-seed repeat must reproduce exactly on a simulator.
  JsonObject sim;
  sim.Int("events_run", static_cast<std::int64_t>(o.events_run))
      .Int("measured_ios", o.measured_ios)
      .Int("completed_total", o.completed_total)
      .Int("latency_count", static_cast<std::int64_t>(o.latency_count))
      .Int("latency_p50_ns", o.latency_p50_ns)
      .Int("latency_p999_ns", o.latency_p999_ns)
      .Num("latency_mean_ns", o.latency_mean_ns)
      .Int("faa_ops", static_cast<std::int64_t>(o.faa_ops))
      .Int("report_writes", static_cast<std::int64_t>(o.report_writes))
      .Int("tokens_from_pool", o.tokens_from_pool)
      .Int("tokens_from_reservation", o.tokens_from_reservation)
      .Int("checks", static_cast<std::int64_t>(o.checks))
      .Int("conversions", static_cast<std::int64_t>(o.conversions))
      .Int("report_signals", static_cast<std::int64_t>(o.report_signals))
      .Int("rebalances", static_cast<std::int64_t>(o.rebalances))
      .Int("tokens_moved", static_cast<std::int64_t>(o.tokens_moved))
      .Int("borrow_granted", o.borrow_granted);
  JsonObject out;
  out.Str("workload", w.name)
      .Int("seed", static_cast<std::int64_t>(seed))
      .Str("runtime", RuntimeName(w.runtime))
      .Num("setup_s", o.setup_s)
      .Num("run_host_s", o.run_host_s)
      .Num("probe_s", probe_s)
      .Int("peak_rss_kb", PeakRssKb())
      .Num("capacity_scale", w.capacity_scale)
      .Num("measured_s", o.measured_s)
      .Int("measured_ios", o.measured_ios)
      .Int("completed_total", o.completed_total)
      .Ints("reservations", reservations)
      .Ints("demands", w.demands)
      .Matrix("completed", o.completed)
      .Ints("refused", o.refused)
      .Int("errored", o.errored)
      .Int("queued_end", o.queued_end)
      .Int("latency_count", static_cast<std::int64_t>(o.latency_count))
      .Int("latency_p50_ns", o.latency_p50_ns)
      .Int("latency_p999_ns", o.latency_p999_ns)
      .Int("ledger_periods", o.ledger_periods)
      .Int("ledger_violations", o.ledger_violations)
      .Int("borrow_granted", o.borrow_granted)
      .Int("borrow_repaid", o.borrow_repaid)
      .Int("borrow_outstanding", o.borrow_outstanding)
      .Object("sim", sim);
  return out;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  const std::string_view mode = argv[1];
  if (mode != "run" && mode != "layers") {
    return Usage("unknown mode '" + std::string(mode) + "'");
  }
  std::string workload_name;
  std::string seed_text;
  bool have_seed = false;
  Shape shape;
  std::uint64_t seconds = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      return Usage("bad argument '" + std::string(arg) + "'");
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string_view value = arg.substr(eq + 1);
    if (key == "workload") {
      workload_name = std::string(value);
    } else if (key == "seed") {
      seed_text = std::string(value);
      have_seed = true;
    } else if (key == "clients" || key == "reserve-permille" ||
               key == "seconds") {
      const auto parsed = ParseSeed(value);
      if (!parsed.ok()) return Usage("bad --" + std::string(key));
      if (key == "clients") {
        shape.clients = static_cast<std::size_t>(parsed.value());
      } else if (key == "seconds") {
        seconds = parsed.value();
      } else {
        shape.reserve_permille = static_cast<std::int64_t>(parsed.value());
      }
    } else {
      return Usage("unknown flag --" + std::string(key));
    }
  }
  if (!have_seed) return Usage("bad_seed: --seed is required");
  const auto seed = ParseSeed(seed_text);
  if (!seed.ok()) return Usage(seed.status().message());
  const auto workload = MakeWorkload(workload_name, seed.value(), shape);
  if (!workload.ok()) return Usage(workload.status().message());

  if (mode == "layers") return RunLayers(workload.value(), seed.value());
  const double start = HostSeconds();
  for (int repeat = 0;; ++repeat) {
    const double probe_before = ProbeSeconds(workload.value());
    const Outcome outcome = RunOnce(workload.value());
    const double probe_after = ProbeSeconds(workload.value());
    RunRecord(workload.value(), seed.value(), outcome,
              (probe_before + probe_after) / 2)
        .Print();
    std::fflush(stdout);
    const bool enough = seconds == 0 || repeat + 1 >= kMinRepeats;
    if (enough && HostSeconds() - start >= static_cast<double>(seconds)) {
      break;
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
