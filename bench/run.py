"""xkd benchmark: one closed-loop caller per workload.

    python3 bench/run.py --workload {scan,fit,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One process and one thread issue the calls, each
starting after the previous one returns.  The inputs come from ``--seed``;
``--seconds`` fixes how many rounds of inputs a run makes (a round and its
checks cost ``round_seconds`` on the reference host), so the work of a run
does not depend on how fast the host is while it runs.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every operation twice, untraced and
traced in alternating order, and reports the per-layer metrics (see
``layers.py``).  The line before it is the run's record: tail percentile and
sample count, host calibration at start and end, set-up samples, error
counts and a digest of every output.  What each metric means, and which
layer should move which end-to-end metric, is in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 11
MIN_ROUNDS = 2
TAIL_BEYOND = 10             # samples that must lie beyond the tail percentile
TAIL_MAX_PERCENTILE = 95.0
# The host's speed wanders by up to a half over seconds to minutes, so plain
# medians of one run do not repeat in the next.  The fast side of a run's
# rounds (what the code does while the host stays out of its way) does, and
# rare expensive operations, which only slow rounds down, cannot move it.
FAST_SHARE = 0.1             # share of rounds that may beat the reported rate and p50


def import_package():
    """Import xkd from this checkout's sources, never from anywhere else."""
    if not (SRC / "xkd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no xkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xkd

    if Path(xkd.__file__).resolve().parent != (SRC / "xkd").resolve():
        raise SystemExit(f"bench: imported xkd from {xkd.__file__}, not from {SRC}")


def calibrate() -> float:
    """Rate of a fixed numpy + interpreter loop; a drift diagnostic only."""
    a = np.linspace(0.0, 1.0, 1500)
    t0 = perf_counter()
    for _ in range(60):
        np.convolve(a, a)
        sum(i * i for i in range(3000))
    return 60 / (perf_counter() - t0)


def setup_seconds(workload: str) -> float:
    """Set-up time of a fresh process: import, catalog, one warm-up per layer."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Outcome:
    """Tally of attempted operations, their checks and their outputs."""

    def __init__(self):
        self.attempted = 0
        self.succeeded = 0
        self.missed = 0              # output missed the operation's success criterion
        self.wrong = 0               # output broke the package's documented contract
        self.errors: Counter[str] = Counter()
        self.latencies: list[float] = []     # seconds, successful operations
        self.diagnostics: dict[str, float] = {}
        self.sha = hashlib.sha256()

    def record(self, workload, inp, out, latency: float) -> bool:
        self.attempted += 1
        self.sha.update(_fingerprint(workload, out))
        if isinstance(out, Exception):
            # the package refused the input; no output to check
            self.errors[type(out).__name__] += 1
            return False
        try:
            passed, sound, diag = workload.check(inp, out)
        except Exception as exc:  # a check that cannot complete is a failed check
            self.errors[f"check: {type(exc).__name__}"] += 1
            passed, sound, diag = False, False, {}
        for key, value in diag.items():
            self.diagnostics[key] = max(self.diagnostics.get(key, 0.0), value)
        self.wrong += not sound
        if not passed:
            self.missed += 1
            return False
        self.succeeded += 1
        self.latencies.append(latency)
        return True


def timed(op, inp):
    t0 = perf_counter()
    try:
        out = op(inp)
    except Exception as exc:  # counted as a failed operation, never aborts the run
        out = exc
    return out, perf_counter() - t0


def measure(workload, rounds, between) -> tuple[Outcome, list[float], list[float], list[float]]:
    """Untraced run: the tally, and per round its wall time, throughput and
    median successful latency.  ``between(i)`` runs, untimed, before round i."""
    outcome = Outcome()
    walls, throughputs, medians = [], [], []
    for i, inputs in enumerate(rounds):
        between(i)
        t0 = perf_counter()
        results = [timed(workload.op, inp) for inp in inputs]
        walls.append(perf_counter() - t0)
        ok = [lat for inp, (out, lat) in zip(inputs, results)
              if outcome.record(workload, inp, out, lat)]
        throughputs.append(len(ok) / walls[-1])
        if ok:
            medians.append(statistics.median(ok))
    return outcome, walls, throughputs, medians


def measure_traced(workload, rounds):
    """Each operation untraced and traced, alternating which goes first."""
    import layers

    tracer = layers.make_tracer()
    outcome = Outcome()
    plain_s = traced_s = 0.0
    mismatched = 0
    index = 0
    for inputs in rounds:
        for inp in inputs:
            runs = {}
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        runs[True] = timed(lambda x: tracer.call("bench.op", workload.op, x), inp)
                else:
                    runs[False] = timed(workload.op, inp)
            index += 1
            plain_s += runs[False][1]
            traced_s += runs[True][1]
            outcome.record(workload, inp, *runs[False])
            if _fingerprint(workload, runs[True][0]) != _fingerprint(workload, runs[False][0]):
                mismatched += 1
    return outcome, layers.per_layer(tracer, outcome, plain_s, traced_s), mismatched


def _fingerprint(workload, out) -> bytes:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}".encode()
    return workload.digest(out)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency.

    The highest percentile with TAIL_BEYOND samples beyond it, but no higher
    than TAIL_MAX_PERCENTILE: past 200 samples the percentile stays put
    instead of creeping outwards with the run length.  (About 1-2 % of fits
    take 5-15 times the median; a p98 or p99 lands on the edge of that group
    and jumps between seeds.)
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    percentile = min(100.0 * (n - TAIL_BEYOND) / n, TAIL_MAX_PERCENTILE)
    return float(np.percentile(ordered, percentile)), percentile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "fit", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    calib_start = calibrate()
    rng = np.random.default_rng(args.seed)
    n_rounds = max(MIN_ROUNDS, round(args.seconds / workload.round_seconds))
    # generated lazily, between timed rounds, so the inputs of the whole run
    # never sit in memory at once
    rounds = (workload.make_round(rng) for _ in range(n_rounds))
    workload.warmup()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": n_rounds,
        "python": platform.python_version(), "numpy": np.__version__,
    }
    if args.trace:
        outcome, metrics, mismatched = measure_traced(workload, rounds)
        record["traced_output_mismatches"] = mismatched
    else:
        # set-up probes spread evenly over the run, so that they sample the
        # same host states as the timed rounds
        probes_before = Counter(k * n_rounds // SETUP_PROBES for k in range(SETUP_PROBES))
        setup = []

        def probe(i):
            for _ in range(probes_before[i]):
                setup.append(setup_seconds(args.workload))

        outcome, walls, throughputs, medians = measure(workload, rounds, probe)
        record["timed_s"] = sum(walls)
        mismatched = 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_s, tail_pct = tail(outcome.latencies) if outcome.latencies else (0.0, 0.0)
        metrics = {
            "throughput_per_s": (float(np.quantile(throughputs, 1.0 - FAST_SHARE)), "1/s"),
            "latency_ms_p50": (1e3 * float(np.quantile(medians or [0.0], FAST_SHARE)), "ms"),
            "latency_ms_tail": (1e3 * tail_s, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "success_frac": (outcome.succeeded / outcome.attempted, "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["tail"] = {"percentile": tail_pct, "samples": len(outcome.latencies)}
        record["round_throughputs"] = throughputs
        record["round_p50_ms"] = [1e3 * m for m in medians]
        record["setup_samples_s"] = setup
    record.update({
        "attempted": outcome.attempted, "succeeded": outcome.succeeded,
        "missed_outputs": outcome.missed, "wrong_outputs": outcome.wrong, "errors": dict(outcome.errors),
        "host.calib_per_s": {"start": calib_start, "end": calibrate()},
        "outputs_sha256": outcome.sha.hexdigest(),
    })
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcome.wrong == 0 and mismatched == 0,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.succeeded,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
