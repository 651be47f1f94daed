"""Tests for the benchmark's own arithmetic and input validation.

    python3 -m unittest discover -s perfbench/tests

The binary tests run only when haechi_perfbench has been built (by any
perfbench/run.py invocation); the rest need no build.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def record(**overrides):
    """A minimal binary `run` record."""
    base = {
        "runtime": "sim", "setup_s": 0.05, "run_host_s": 2.0,
        "probe_s": 0.04, "peak_rss_kb": 102400, "capacity_scale": 0.02,
        "measured_s": 8.0,
        "measured_ios": 8000, "completed_total": 10000,
        "reservations": [100, 50], "demands": [200, 20],
        "completed": [[100, 20], [100, 20]], "refused": [0, 0],
        "errored": 0, "queued_end": 0, "latency_count": 0,
        "latency_p50_ns": 0, "latency_p999_ns": 0, "ledger_periods": 0,
        "ledger_violations": 0, "borrow_granted": 0, "borrow_repaid": 0,
        "borrow_outstanding": 0, "sim": {"events_run": 1},
    }
    base.update(overrides)
    return base


class PercentileRule(unittest.TestCase):
    def test_p999_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(10000, 99.9), 10)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(9999), 99.0)

    def test_falls_back_to_lower_tails(self):
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertIsNone(metrics.tail_percentile(99))

    def test_latency_lines_print_the_sample_count(self):
        lines = run.latency_lines(record(latency_count=12345,
                                         latency_p50_ns=2000,
                                         latency_p999_ns=9000))
        self.assertIn("12345 samples", lines[0])
        self.assertIn("io_p999_us = 9.000", lines[1])
        short = run.latency_lines(record(latency_count=5000))
        self.assertIn("not reported", short[1])


class ReservationMet(unittest.TestCase):
    def test_target_is_min_of_reservation_and_demand(self):
        # Client 1 demands 20 < its reservation 50: 20 completed meets it.
        self.assertEqual(metrics.reservation_met_pct(
            [100, 50], [200, 20], [[100, 20], [99, 20]], [0, 0]), 75.0)

    def test_unlimited_demand_uses_the_reservation(self):
        self.assertEqual(metrics.reservation_met_pct(
            [100], [0], [[100], [99]], [0]), 50.0)

    def test_refused_submits_count_as_misses(self):
        self.assertEqual(metrics.reservation_met_pct(
            [100, 50], [200, 20], [[100, 20], [100, 20]], [0, 1]), 50.0)


class FailedBase(unittest.TestCase):
    def test_attempted_counts_served_queued_refused_and_errored(self):
        r = record(completed_total=1000, queued_end=50, refused=[3, 2],
                   errored=5)
        self.assertEqual(metrics.attempted_ios(r), 1060)
        self.assertEqual(metrics.failed_ios(r), 10)
        self.assertAlmostEqual(metrics.io_ok_pct(1060, 10),
                               100.0 * 1050 / 1060)

    def test_no_attempts_is_not_a_success(self):
        self.assertEqual(metrics.io_ok_pct(0, 0), 0.0)


class Normalisation(unittest.TestCase):
    def test_served_kiops_scales_back_to_full_capacity(self):
        # 8000 I/Os in 8 simulated seconds at scale 0.02 = 50 full-scale KIOPS.
        self.assertAlmostEqual(metrics.served_kiops(record()), 50.0)
        self.assertAlmostEqual(
            metrics.served_kiops(record(capacity_scale=1.0)), 1.0)

    def test_threaded_kiops_are_calibrated_not_scaled(self):
        slow = record(runtime="threads", capacity_scale=1.0,
                      probe_s=2 * metrics.PROBE_NOMINAL_S)
        self.assertAlmostEqual(metrics.served_kiops(slow), 2.0)

    def test_end_to_end_takes_medians_over_repeats(self):
        values = run.end_to_end([record(setup_s=s) for s in (0.3, 0.1, 0.2)])
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["calibrated_ios_per_s"], 5000.0)
        self.assertAlmostEqual(values["peak_rss_mb"], 100.0)


class Calibration(unittest.TestCase):
    def test_a_slow_probe_scales_the_rate_up(self):
        nominal = metrics.PROBE_NOMINAL_S
        self.assertAlmostEqual(
            metrics.calibrated_rate(1000, 2.0, nominal), 500.0)
        # The host ran at half speed for both the run and the probe.
        self.assertAlmostEqual(
            metrics.calibrated_rate(1000, 4.0, 2 * nominal), 500.0)
        self.assertAlmostEqual(
            metrics.calibrated_seconds(4.0, 2 * nominal), 2.0)


class Checks(unittest.TestCase):
    def test_same_seed_identity_and_seed_sensitivity(self):
        same = [record(), record()]
        names = dict(run.end_to_end_checks(same, record(sim={"events_run": 2})))
        self.assertTrue(all(names.values()))
        drift = dict(run.end_to_end_checks(
            [record(), record(sim={"events_run": 3})], record()))
        self.assertFalse(
            drift["same-seed repeats reproduce every simulated statistic"])
        self.assertFalse(
            drift["a different seed changes the simulated statistics"])

    def test_threaded_ledger_and_cluster_borrow(self):
        threads = record(runtime="threads", ledger_periods=12)
        self.assertTrue(metrics.ledger_ok(threads))
        self.assertFalse(metrics.ledger_ok(record(runtime="threads")))
        self.assertTrue(metrics.borrow_ok(record(
            borrow_granted=10, borrow_repaid=4, borrow_outstanding=6)))
        self.assertFalse(metrics.borrow_ok(record(
            borrow_granted=10, borrow_repaid=4, borrow_outstanding=5)))


class NamesMatchBenchmark(unittest.TestCase):
    def test_end_to_end_names(self):
        declared = [m["name"] for m in BENCHMARK["end_to_end"]]
        self.assertEqual(metrics.name_mismatch(
            run.end_to_end([record()]), declared), ([], []))

    def test_name_mismatch_reports_both_sides(self):
        self.assertEqual(metrics.name_mismatch(["a", "b"], ["b", "c"]),
                         (["a"], ["c"]))

    def test_workload_names_match_the_binary(self):
        source = (BENCH_DIR / "src" / "workloads.cpp").read_text()
        block = re.search(r"kNames = \{(.*?)\};", source, re.S).group(1)
        self.assertEqual(re.findall(r'"([a-z_]+)"', block),
                         [w["name"] for w in BENCHMARK["workloads"]])


class Arguments(unittest.TestCase):
    WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

    def parse(self, *argv):
        return run.parse_args(list(argv), self.WORKLOADS)

    def test_seed_is_required_and_decimal(self):
        with open(os.devnull, "w") as quiet:
            stderr, sys.stderr = sys.stderr, quiet
            try:
                for argv in (["--workload", "sim_paper_zipf"],
                             ["--workload", "sim_paper_zipf", "--seed", "x1"],
                             ["--workload", "sim_paper_zipf", "--seed", "-3"],
                             ["--workload", "nope", "--seed", "1"]):
                    with self.assertRaises(SystemExit) as exit_:
                        self.parse(*argv)
                    self.assertEqual(exit_.exception.code, 2)
            finally:
                sys.stderr = stderr
        self.assertEqual(self.parse("--workload", "sim_paper_zipf",
                                    "--seed", "7").seed, 7)


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench" / "haechi_perfbench"


@unittest.skipUnless(binary_path().is_file(), "haechi_perfbench not built")
class BinaryValidation(unittest.TestCase):
    def binary(self, *args):
        return subprocess.run([str(binary_path()), *args],
                              capture_output=True, text=True, timeout=30)

    def test_rejects_more_clients_than_monitor_slots(self):
        done = self.binary("run", "--workload=sim_control_mix", "--seed=1",
                           "--clients=70")
        self.assertEqual(done.returncode, 2)
        self.assertIn("too_many_clients", done.stderr)
        self.assertEqual(done.stdout, "")

    def test_rejects_an_infeasible_reservation_set(self):
        done = self.binary("run", "--workload=sim_paper_zipf", "--seed=1",
                           "--reserve-permille=1100")
        self.assertEqual(done.returncode, 2)
        self.assertIn("infeasible_reservations", done.stderr)

    def test_rejects_a_missing_or_malformed_seed(self):
        for args in (["--workload=sim_paper_zipf"],
                     ["--workload=sim_paper_zipf", "--seed=12x"],
                     ["--workload=sim_paper_zipf", "--seed="]):
            done = self.binary("run", *args)
            self.assertEqual(done.returncode, 2)
            self.assertIn("bad_seed", done.stderr)


if __name__ == "__main__":
    unittest.main()
