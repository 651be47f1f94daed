#!/usr/bin/env python3
"""Haechi performance benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. Builds haechi_perfbench (the repository's
libraries plus perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then:

  --trace 0  repeats the workload with tracing off in one binary process
             until S seconds have passed (at least three times) with the
             given seed, runs it once more with seed+1, checks the outputs,
             and reports the end-to-end metrics of BENCHMARK.json as medians
             over the repeats;
  --trace 1  runs the traced per-layer pass once and reports the per-layer
             metrics of BENCHMARK.json.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
output check passed, 1 when one failed or the binary failed, 2 on bad
arguments or a directory that holds no library sources to build.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402

BUILD_TIMEOUT_S = 850
BINARY_TIMEOUT_S = 120


class BenchError(Exception):
    """A failure that ends the run without a result; carries the exit code."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path.name}: {error}", 2)


def seed_arg(text):
    # At most 18 digits, so that seed + 1 still fits the binary's parser.
    if not text.isdigit() or len(text) > 18:
        raise argparse.ArgumentTypeError(
            f"bad_seed: {text!r} is not a non-negative decimal integer")
    return int(text)


def positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Haechi benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", type=positive_int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build():
    """Configures and builds haechi_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(
            "no library sources: src/CMakeLists.txt is missing next to "
            "perfbench/ (run from the root of a full checkout)", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = ROOT / target / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(out), "-j", jobs,
                "--target", "haechi_perfbench"]
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for command in (configure, compile_):
            try:
                done = subprocess.run(command, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                raise BenchError(f"build failed: {error}")
            if done.returncode != 0:
                raise BenchError(f"build failed: {' '.join(command)}")
    return out / "haechi_perfbench"


def run_binary(binary, mode, workload, seed, seconds=0):
    """Runs the binary once; returns its JSON records, one per repeat."""
    command = [str(binary), mode, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"binary timed out: {' '.join(command)}")
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"binary failed ({done.returncode}): "
                         f"{' '.join(command)}\n{done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def end_to_end(records):
    """The end-to-end metrics over same-seed repeats, by name."""
    def med(fn):
        return metrics.median([fn(r) for r in records])

    attempted = sum(metrics.attempted_ios(r) for r in records)
    failed = sum(metrics.failed_ios(r) for r in records)
    return {
        "setup_s": med(lambda r: metrics.calibrated_seconds(
            r["setup_s"], r["probe_s"])),
        "calibrated_ios_per_s": med(lambda r: metrics.calibrated_rate(
            r["completed_total"], r["run_host_s"], r["probe_s"])),
        "served_kiops": med(metrics.served_kiops),
        "reservation_met_pct": med(lambda r: metrics.reservation_met_pct(
            r["reservations"], r["demands"], r["completed"], r["refused"])),
        "io_ok_pct": metrics.io_ok_pct(attempted, failed),
        "peak_rss_mb": med(lambda r: r["peak_rss_kb"] / 1024.0),
    }


def end_to_end_checks(records, other_seed):
    """(description, passed) for every output check of an untraced run."""
    runtime = records[0]["runtime"]
    checks = []
    if runtime in ("sim", "cluster"):
        first = metrics.simulated_fingerprint(records[0])
        checks.append((
            "same-seed repeats reproduce every simulated statistic",
            all(metrics.simulated_fingerprint(r) == first for r in records)))
        checks.append((
            "a different seed changes the simulated statistics",
            metrics.simulated_fingerprint(other_seed) != first))
    if runtime == "threads":
        checks.append(("every closed period's pool ledger balances",
                       all(metrics.ledger_ok(r)
                           for r in records + [other_seed])))
    if runtime == "cluster":
        checks.append(("borrow granted - repaid == outstanding",
                       all(metrics.borrow_ok(r)
                           for r in records + [other_seed])))
    checks.append(("no submit refused and no I/O errored",
                   sum(metrics.failed_ios(r)
                       for r in records + [other_seed]) == 0))
    return checks


def latency_lines(record):
    """The simulated submit->complete latency, with its sample count."""
    count = record["latency_count"]
    if record["runtime"] != "sim":
        return ["io latency: not collected by the "
                f"{record['runtime']} harness with tracing off"]
    tail = metrics.tail_percentile(count)
    lines = [f"io_p50_us = {record['latency_p50_ns'] / 1e3:.3f} sim_us "
             f"({count} samples)"]
    if tail == 99.9:
        lines.append(f"io_p999_us = {record['latency_p999_ns'] / 1e3:.3f} "
                     f"sim_us ({metrics.samples_beyond(count, 99.9)} "
                     "samples beyond)")
    else:
        lines.append(f"io_p999_us not reported: fewer than "
                     f"{metrics.TAIL_MARGIN} samples beyond p99.9")
    return lines


def untraced(args, binary, declared):
    start = time.monotonic()
    records = run_binary(binary, "run", args.workload, args.seed,
                         args.seconds)
    other_seed = run_binary(binary, "run", args.workload, args.seed + 1)[0]
    values = end_to_end(records)
    checks = end_to_end_checks(records, other_seed)
    extra, missing = metrics.name_mismatch(values, declared)
    checks.append(("emitted metric names match BENCHMARK.json",
                   not extra and not missing))
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} "
          f"repeats in {time.monotonic() - start:.1f} s (+1 at seed "
          f"{args.seed + 1})")
    raw = metrics.median([r["completed_total"] / r["run_host_s"]
                          for r in records])
    probe = metrics.median([r["probe_s"] for r in records])
    print(f"ios_per_host_s = {raw:.0f} io/s uncalibrated (reference probe "
          f"{probe * 1e3:.2f} ms, nominal {metrics.PROBE_NOMINAL_S * 1e3:.0f}"
          " ms)")
    for line in latency_lines(records[0]):
        print(line)
    attempted = sum(metrics.attempted_ios(r) for r in records)
    failed = sum(metrics.failed_ios(r) for r in records)
    return values, checks, attempted, failed


def traced(args, binary, declared):
    record = run_binary(binary, "layers", args.workload, args.seed)[0]
    c = record["checks"]
    extra, missing = metrics.name_mismatch(record["metrics"], declared)
    checks = [
        ("audit passes on the traced run (FirstFailedCheck == 0)",
         c["audit_first_failed"] == 0),
        ("no trace ring dropped an event", c["trace_dropped"] == 0),
        ("no report lease expired", c["lease_expirations"] == 0),
        ("emitted metric names match BENCHMARK.json",
         not extra and not missing),
    ]
    if record["runtime"] in ("sim", "cluster"):
        checks.append(("tracing leaves the simulation unchanged",
                       c["trace_neutral"]))
        for name, count in (("span", c["span_count"]),
                            ("io latency",
                             record["metrics"].get("io.latency_samples", 0))):
            checks.append((f"{name} p99.9 has >= {metrics.TAIL_MARGIN} "
                           f"samples beyond it ({count} samples)",
                           metrics.tail_percentile(count) == 99.9))
    print(f"workload {args.workload}, seed {args.seed}: traced per-layer "
          f"run, {c['trace_events']} trace events, {c['span_count']} spans")
    return record["metrics"], checks, c["attempted"], c["failed"]


def main(argv):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, workloads)
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    binary = build()
    measure = traced if args.trace else untraced
    values, checks, attempted, failed = measure(args, binary, list(units))
    for description, passed in checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {description}")
    for name, unit in units.items():
        print(f"{name} = {values.get(name)} {unit}")
    correct = all(passed for _, passed in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(error.code)
