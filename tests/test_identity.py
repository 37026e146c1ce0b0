"""The identity corpus: 607 seeded systems whose reports, pivots and support
LPs a refactor must leave byte for byte as they are.

For each group of systems, tests/identity.json holds sha256 digests of
- the report stream, each report as dumps_indented(report_to_dict(report,
  include_witness=True)), one per line;
- the (row, column) sequence of every pivot that analyze makes, recorded by
  a spy on cbd.simplex._Revised.pivot (cbd itself has no hook for it);
- every field of build_coupling_lp(system, support=True), views included,
  one LP per line: the repr of the tuple (variables, atoms, rows, objective,
  start, layout), each row as (label, cols, rhs), so that a change in how
  LPInstance or LPRow records or prints them leaves the digest as it is.

The referee test solves the same support LPs by the dense tableau of
tests/referee_simplex.py from each LP's start, and checks that it makes
solve_lp's pivots, finds its solution and matches the committed pivot digest.

A change meant to alter any of these regenerates the file with

    python tests/test_identity.py --write

and says why in its description.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cbd.simplex  # noqa: E402
from cbd import (  # noqa: E402
    analyze,
    build_coupling_lp,
    enumerate_variants,
    is_deterministic,
    liar_system,
    parse_system_text,
    uniform_mixture,
)
from cbd.serialization import dumps_indented, report_to_dict  # noqa: E402

from helpers import rand_system, solves_from_start  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CORPUS = ROOT / "tests" / "identity.json"


def mixture(spec):
    return uniform_mixture(spec, enumerate_variants(spec))


def first_inputs(workload, count=150, seed=7):
    return itertools.islice(WORKLOADS[workload].inputs(seed), count)


def random_systems():
    rng = random.Random(11)
    return [rand_system(rng, 6, 6, 3, 0.3, 4096) for _ in range(300)]


def corpus():
    """Group name -> function returning the group's systems."""
    return {
        "rand_system": random_systems,
        "liar": lambda: [mixture(liar_system(n)) for n in range(2, 9)],
        "ring-sparse": lambda: [
            mixture(inp.data.spec) for inp in first_inputs("ring-sparse")
        ],
        "cyclic-dense": lambda: [
            parse_system_text(inp.data.text) for inp in first_inputs("cyclic-dense")
        ],
    }


@contextlib.contextmanager
def recorded_pivots():
    """Record the (row, column) of every solver pivot made inside."""
    pivots = []
    pivot = cbd.simplex._Revised.pivot

    def recording(tab, r, s, col):
        pivots.append((r, s))
        pivot(tab, r, s, col)

    cbd.simplex._Revised.pivot = recording
    try:
        yield pivots
    finally:
        cbd.simplex._Revised.pivot = pivot


def sha256_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def digests(systems):
    with recorded_pivots() as pivots:
        reports = [
            dumps_indented(report_to_dict(analyze(s), include_witness=True))
            for s in systems
        ]
    return {
        "systems": len(systems),
        "pivots": len(pivots),
        "reports": sha256_lines(reports),
        "pivot_sequence": sha256_lines(f"{r} {s}" for r, s in pivots),
        "support_lps": sha256_lines(
            lp_text(build_coupling_lp(s, support=True)) for s in systems
        ),
    }


def lp_text(lp):
    rows = tuple((row.label, row.cols, row.rhs) for row in lp.rows)
    return repr((lp.variables, lp.atoms, rows, lp.objective, lp.start, lp.layout))


@pytest.mark.parametrize("group", list(corpus()))
def test_digests_match_the_committed_corpus(group):
    want = json.loads(CORPUS.read_text(encoding="utf-8"))[group]
    assert digests(corpus()[group]()) == want


@pytest.mark.parametrize("group", list(corpus()))
def test_referee_tableau_makes_the_same_pivots(group):
    want = json.loads(CORPUS.read_text(encoding="utf-8"))[group]
    dense_pivots = []
    for system in corpus()[group]():
        if is_deterministic(system):
            continue  # analyze solves no LP for it
        lp = build_coupling_lp(system, support=True)
        (result, pivots), (dense_result, dense) = solves_from_start(lp)
        assert dense == pivots
        assert dense_result == result
        dense_pivots += dense
    assert len(dense_pivots) == want["pivots"]
    assert sha256_lines(f"{r} {s}" for r, s in dense_pivots) == want["pivot_sequence"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    doc = {group: digests(make()) for group, make in corpus().items()}
    CORPUS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}: {sum(g['systems'] for g in doc.values())} systems")
