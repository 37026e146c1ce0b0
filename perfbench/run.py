"""Closed-loop benchmark of cbd verdicts.

    python3 perfbench/run.py --workload ring-sparse --seed 1 --seconds 30 --trace 0

One caller, one process: the caller hands cbd one system, waits for the
JSON report, checks it against an exact reference computed without the
LP, then sends the next.  `--trace 0` reports the end-to-end metrics;
`--trace 1` wraps cbd's public functions and reports per-layer self times
and counts instead.  The last line of standard output is the result object;
the line before it holds the run's details (input digest, tail percentile
and sample count, contextual share, raw wall-clock figures, layer split).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
REFERENCE_EVERY_S = 0.25
CANARY = 8  # verdicts whose counts, reports and timings the traced run pins
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cbd, cbd.cli; d = time.perf_counter() - t; print(repr(d)); print(cbd.__file__)"
)


def _from_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def load_cbd():
    if not (SRC / "cbd" / "__init__.py").is_file():
        sys.exit(f"error: no cbd package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cbd

    if not _from_src(cbd.__file__):
        sys.exit(f"error: imported cbd from {cbd.__file__}, not from {SRC}")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import cbd and cbd.cli."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, path = proc.stdout.split("\n")[:2]
    if not _from_src(path):
        raise RuntimeError(f"set-up imported cbd from {path}")
    return float(seconds)


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Run:
    """One closed loop over a workload's input stream."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.stream = workload.inputs(seed)
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.contextual = 0
        self.times: list[float] = []

    def verdict(self, inp, tracer, measured=True):
        """Run and check one verdict; returns (seconds, output) or None.

        An exception or a wrong report counts as a failure and never stops
        the run.  An unmeasured verdict still counts as attempted.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(inp.data, tracer)
            dt = time.perf_counter() - t0
            problem = self.workload.check(inp.data, out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        if problem is not None:
            self.failed += 1
            print(f"verdict {self.attempted} input {inp.digest[:12]}: {problem}", file=sys.stderr)
            return None
        if measured:
            self.times.append(dt)
            self.contextual += self.workload.contextual(inp.data)
        return dt, out

    def warm_up(self, tracer):
        """One unmeasured verdict, so lazy imports and caches settle first."""
        self.verdict(self.workload.warmup_input(self.seed), tracer, measured=False)

    def next_input(self):
        inp = next(self.stream)
        self.digest.update(inp.digest.encode())
        return inp

    def details(self):
        times = sorted(self.times)
        p = self.workload.tail_percentile
        tail, beyond = percentile(times, p) if times else (0.0, 0)
        return {
            "verdicts": len(times),
            "input_digest": self.digest.hexdigest(),
            "tail_percentile": p,
            "tail_samples_beyond": beyond,
            "error_rate": self.failed / max(1, self.attempted),
            "contextual_share": self.contextual / max(1, len(times)),
        }, tail


class _Keyed:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


REFERENCE_ITEMS = [_Keyed(f"k{i:04d}") for i in range(400)]


def reference_pass() -> float:
    """Seconds for one fixed pure-Python computation that uses no cbd code.

    Fraction arithmetic with growing terms and linear scans comparing string
    attributes: the interpreter work cbd's verdicts are made of.  It
    allocates little, so its time tracks how fast the host runs Python at
    the moment.  Verdict times divided by it cancel much of the host's
    drift, while any change to cbd still shows in full.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 200):
            acc = acc * Fraction(i, i + 1) + Fraction(1, i % 7 + 2)
        for k in range(0, len(REFERENCE_ITEMS), 2):
            want = f"k{k:04d}"
            for item in REFERENCE_ITEMS:
                if item.key == want:
                    break
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_untraced(workload, seed, seconds):
    """End-to-end run.

    Between verdicts, never during one, it times a reference pass every
    REFERENCE_EVERY_S and a fresh-interpreter import at SETUP_SAMPLES even
    intervals, so both sample the whole run.  Verdict times are divided by
    the mean reference time, not its median: a 3 ms pass sees the host's
    short slow bursts that a verdict averages over, and only the mean
    averages both the same way.
    """
    from spans import NullTracer

    null = NullTracer()
    import_time()  # fills the bytecode cache, which users pay once, not every run
    run = Run(workload, seed)
    run.warm_up(null)
    setup, refs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    next_ref = start
    while (now := time.perf_counter()) < deadline:
        if now >= next_ref:
            refs.append(reference_pass())
            next_ref = now + REFERENCE_EVERY_S
        elif len(setup) < SETUP_SAMPLES and now >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_time())
        else:
            run.verdict(run.next_input(), null)
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time())
    details, tail = run.details()
    ref = statistics.fmean(refs or [reference_pass()])
    busy = sum(run.times)
    p50 = statistics.median(run.times) if run.times else 0.0
    details.update(
        reference_ms=ref * 1e3,
        verdict_p50_ms=p50 * 1e3,
        verdict_tail_ms=tail * 1e3,
        verdicts_per_s=len(run.times) / busy if busy else 0.0,
    )
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdicts_per_kref": (1e3 * len(run.times) * ref / busy if busy else 0.0, "1/kref"),
        "verdict_p50_ref": (p50 / ref, "ref"),
        "verdict_tail_ref": (tail / ref, "ref"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    return run, details, metrics


def run_traced(workload, seed, seconds):
    """Per-layer run: the canary inputs untraced, then traced until the deadline.

    The canary inputs are replayed first under the tracer, so the overhead
    compares the same inputs, and their reports must match byte for byte.
    """
    from cbd.coupling import verify_solution
    from spans import (
        COUNT_METRICS, NullTracer, Tracer, instrument, self_times, top_level_time,
    )

    null = NullTracer()
    run = Run(workload, seed)
    run.warm_up(null)
    deadline = time.perf_counter() + seconds
    canary = [run.next_input() for _ in range(CANARY)]
    untraced = [run.verdict(inp, null) for inp in canary]

    tracer = Tracer()
    per_verdict_counts = []
    traced_times = []
    instrument(tracer)
    try:
        k = 0
        while k < CANARY or time.perf_counter() < deadline:
            inp = canary[k] if k < CANARY else run.next_input()
            tracer.verdict = k
            tracer.counts.clear()
            result = run.verdict(inp, tracer)
            k += 1
            rechecked = [verify_solution(lp, sol) for lp, sol in tracer.solutions]
            tracer.solutions.clear()
            per_verdict_counts.append(dict(tracer.counts))
            if result is None:
                continue
            if not all(rechecked):
                run.failed += 1
                print(f"traced verdict {k}: LP solution failed verify_solution", file=sys.stderr)
            if k <= CANARY:
                before = untraced[k - 1]
                if before is None or before[1] != result[1]:
                    run.failed += 1
                    print(f"traced verdict {k}: report differs from the untraced one", file=sys.stderr)
            traced_times.append(result[0])
    finally:
        tracer.restore()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload.name}-seed{seed}.spans.tsv.gz")

    details, _ = run.details()
    metrics = {name: (value, "s") for name, value in self_times(tracer.spans).items()}
    window = per_verdict_counts[:CANARY]
    for name in COUNT_METRICS:
        values = [c.get(name, 0) for c in window]
        value = max(values) if name.endswith("_max_bits") else sum(values) / len(values)
        metrics[name] = (value, "count")
    traced_total = sum(traced_times)
    untraced_canary = [r[0] for r in untraced if r is not None]
    metrics["trace.unattributed_s"] = (traced_total - top_level_time(tracer.spans), "s")
    metrics["trace.overhead_frac"] = (
        sum(traced_times[:CANARY]) / sum(untraced_canary) - 1 if untraced_canary else 0.0,
        "fraction",
    )
    metrics["trace.verdicts"] = (len(traced_times), "count")
    details["canary_digest"] = hashlib.sha256(
        "".join(inp.digest for inp in canary).encode()
    ).hexdigest()
    details["split_pct"] = {
        name: round(100 * value / traced_total, 2)
        for name, (value, unit) in metrics.items()
        if unit == "s" and traced_total
    }
    return run, details, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_cbd()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    measure = run_traced if args.trace else run_untraced
    run, details, metrics = measure(workload, args.seed, args.seconds)
    details.update(workload=workload.name, seed=args.seed, trace=args.trace)
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
