"""Self-tests of the benchmark: references, tracing and seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cbd.analysis  # noqa: E402
import cbd.cli  # noqa: E402
import cbd.coupling  # noqa: E402
import cbd.simplex  # noqa: E402
from cbd import analyze, parse_system_text  # noqa: E402
from cbd.systems import System  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, instrument, self_times  # noqa: E402

SMALL = [
    ("ring-sparse", workloads.make_ring, {"rank": r}) for r in (3, 4, 5)
] + [
    ("cyclic-dense", workloads.make_cycle, {"n": n}) for n in (2, 3)
] + [
    ("chain-det", workloads.make_chain, {"n": 50}),
]


def small_inputs(count=12):
    for name, make, size in SMALL:
        for i in range(count):
            rng = random.Random(f"test:{name}:{size}:{i}")
            _, data = make(rng, i, **size)
            yield workloads.WORKLOADS[name], data


@pytest.mark.parametrize("name,make,size", SMALL, ids=lambda v: str(v))
def test_reference_agrees_with_analyze(name, make, size):
    wl = workloads.WORKLOADS[name]
    verdicts = set()
    for i in range(12):
        _, data = make(random.Random(f"ref:{name}:{size}:{i}"), i, **size)
        out = wl.run(data, NullTracer())
        assert wl.check(data, out) is None
        verdicts.add(wl.contextual(data))
    if name != "chain-det":
        assert verdicts == {True, False}, "both verdicts should occur"


def test_cyclic_reference_matches_lp_directly():
    for n in (2, 3, 4):
        for i in range(6 if n < 4 else 2):
            _, cycle = workloads.make_cycle(random.Random(f"lp:{n}:{i}"), i, n=n)
            report = analyze(parse_system_text(cycle.text))
            assert (report.cnt, report.delta_sum) == workloads.cyclic_reference(
                cycle.contexts
            )


def test_checkers_reject_a_wrong_report():
    for wl, data in small_inputs(count=2):
        out = wl.run(data, NullTracer())
        code, text = out if isinstance(out, tuple) else (None, out)
        report = json.loads(text)
        report["delta_sum"]["exact"] = "7/3"
        bad = json.dumps(report)
        assert wl.check(data, (code, bad) if code is not None else bad) is not None


def _wrapped_names():
    return {
        (owner.__name__, attr): getattr(owner, attr)
        for owner, attrs in (
            (cbd.cli, ("parse_system", "analyze", "report_to_dict")),
            (
                cbd.analysis,
                (
                    "delta_pairs",
                    "system_delta",
                    "is_consistently_connected",
                    "analyze_deterministic",
                ),
            ),
            (cbd.coupling, ("build_coupling_lp", "solve_lp")),
            (cbd.simplex, ("solve_min",)),
            (System, ("block", "contexts_of")),
        )
        for attr in attrs
    }


def test_traced_reports_match_untraced_and_names_are_restored():
    before = _wrapped_names()
    for wl, data in small_inputs(count=3):
        plain = wl.run(data, NullTracer())
        tracer = Tracer()
        instrument(tracer)
        try:
            assert all(
                getattr(v, "__wrapped__", None) is before[k]
                for k, v in _wrapped_names().items()
            )
            traced = wl.run(data, tracer)
        finally:
            tracer.restore()
        assert traced == plain
        assert tracer.spans and None not in tracer.spans
        assert not tracer._stack
        if wl.name != "chain-det":
            assert len(tracer.solutions) == 1
            assert cbd.coupling.verify_solution(*tracer.solutions[0])
            assert tracer.counts["simplex.calls"] == 1
        assert _wrapped_names() == before


def test_self_times_sum_to_top_level_time():
    wl = workloads.WORKLOADS["ring-sparse"]
    _, data = workloads.make_ring(random.Random(1), 0, rank=4)
    tracer = Tracer()
    instrument(tracer)
    try:
        wl.run(data, tracer)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"cli", "analysis", "simplex.solve_min", "systems.lookup"} <= names
    total = sum(self_times(tracer.spans).values())
    top = sum(e - s for _, s, e, parent, _ in tracer.spans if parent is None)
    assert total == pytest.approx(top, rel=1e-9)


def test_same_seed_same_inputs():
    for wl in workloads.WORKLOADS.values():
        a = [inp.digest for _, inp in zip(range(3), wl.inputs(5))]
        b = [inp.digest for _, inp in zip(range(3), wl.inputs(5))]
        c = [inp.digest for _, inp in zip(range(3), wl.inputs(6))]
        assert a == b
        assert len(set(a)) == 3
        assert not set(a) & set(c)


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_reports_the_declared_metrics():
    run, details, metrics = bench.run_untraced(
        workloads.WORKLOADS["cyclic-dense"], 3, seconds=3
    )
    assert run.failed == 0 and run.times
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert details["reference_ms"] > 0


def test_traced_run_counts_repeat_for_a_seed():
    wl = workloads.WORKLOADS["cyclic-dense"]
    runs = [bench.run_traced(wl, 3, seconds=0) for _ in range(2)]
    for run, details, metrics in runs:
        assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
        assert run.failed == 0
        assert metrics["simplex.calls"][0] == 1
        assert metrics["coupling.atoms"][0] == 2 ** (2 * workloads.CYCLIC_RANK)
    counts = [
        {k: v for k, (v, unit) in metrics.items() if unit == "count" and k != "trace.verdicts"}
        for _, _, metrics in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0][1]["canary_digest"] == runs[1][1]["canary_digest"]


def test_percentile_has_the_stated_samples_beyond():
    values = list(range(1, 41))
    assert bench.percentile(values, 75) == (30, 10)
    assert bench.percentile(values, 50) == (20, 20)
