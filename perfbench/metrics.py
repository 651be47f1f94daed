"""The benchmark's own arithmetic: pure functions over the binary's records.

Kept apart from run.py so perfbench/tests can check every rule without a
build.
"""

import math
import statistics

# Percentiles a timing may be reported at, highest first. A percentile is
# reported only when at least TAIL_MARGIN samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MARGIN = 10


def samples_beyond(count, percentile):
    """Samples strictly above the given percentile of `count` samples."""
    return count - math.ceil(count * percentile / 100.0)


def tail_percentile(count):
    """The highest reportable tail percentile for `count` samples, or None."""
    for percentile in TAIL_PERCENTILES:
        if samples_beyond(count, percentile) >= TAIL_MARGIN:
            return percentile
    return None


def median(values):
    return statistics.median(values)


# What ProbeSeconds() takes on an idle host of the reference machine (a
# 4-core Xeon VM); calibrated rates are quoted at that host speed.
PROBE_NOMINAL_S = 0.04


def calibrated_seconds(host_s, probe_s):
    """Host seconds at the reference host speed (see calibrated_rate)."""
    return host_s * PROBE_NOMINAL_S / probe_s


def calibrated_rate(ios, host_s, probe_s):
    """I/Os per calibrated host second. Host seconds are scaled by how much
    slower the fixed reference probe ran next to the run than it runs on
    the idle reference host, which cancels the drift a shared host imposes
    on both alike."""
    return ios / calibrated_seconds(host_s, probe_s)


def served_kiops(record):
    """KIOPS over the measured window on the system's own clock. Simulated
    time is normalised to full capacity scale (a simulator run at scale s
    serves s times the paper's hardware); the threaded runtime's wall clock
    is a host clock and is calibrated like calibrated_rate."""
    kiops = record["measured_ios"] / record["measured_s"] / 1e3
    if record["runtime"] == "threads":
        return calibrated_rate(kiops, 1.0, record["probe_s"])
    return kiops / record["capacity_scale"]


def reservation_met_pct(reservations, demands, completed, refused):
    """% of (client, measured period) pairs that completed at least
    min(reservation, demand) I/Os. Demand 0 means unlimited. A client with
    any refused submit misses every period: the refusal is a lost request
    the per-period counts cannot show."""
    pairs = 0
    met = 0
    for row in completed:
        for client, done in enumerate(row):
            demand = demands[client]
            target = reservations[client]
            if demand > 0:
                target = min(target, demand)
            pairs += 1
            if refused[client] == 0 and done >= target:
                met += 1
    return 100.0 * met / pairs if pairs else 0.0


def attempted_ios(record):
    """I/Os the clients tried: served (whole run), still queued at the end,
    refused at submit, or ended in an error."""
    return (record["completed_total"] + record["queued_end"] +
            sum(record["refused"]) + record["errored"])


def failed_ios(record):
    """Refused submits plus errored I/Os."""
    return sum(record["refused"]) + record["errored"]


def io_ok_pct(attempted, failed):
    """% of attempted I/Os that neither were refused nor failed."""
    return 100.0 * (attempted - failed) / attempted if attempted else 0.0


def ledger_ok(record):
    """Threaded runs: every closed period's pool ledger balanced
    (initial + minted + absorbed - granted - lent == end)."""
    return record["ledger_periods"] > 0 and record["ledger_violations"] == 0


def borrow_ok(record):
    """Cluster runs: granted - repaid == outstanding."""
    return (record["borrow_granted"] - record["borrow_repaid"] ==
            record["borrow_outstanding"])


def simulated_fingerprint(record):
    """Everything a same-seed simulator repeat must reproduce exactly."""
    return (record["completed"], record["sim"])


def name_mismatch(emitted, declared):
    """Names emitted but not declared, and declared but not emitted."""
    emitted, declared = set(emitted), set(declared)
    return sorted(emitted - declared), sorted(declared - emitted)
