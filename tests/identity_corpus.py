"""The identity corpus: 615 seeded systems whose reports, pivots and support
LPs a refactor must leave byte for byte as they are.

For each group of systems, tests/identity.json holds sha256 digests of
- the report stream, each report as dumps_indented(report_to_dict(report,
  include_witness=True)), one per line;
- the (row, column) sequence of every pivot that analyze makes, recorded by
  a spy on cbd.simplex._Revised.pivot (cbd itself has no hook for it);
- every build_coupling_lp(system), spelled out by helpers.lp_views, one LP
  per line: the repr of the tuple (variables, atoms, rows, objective, start,
  layout), each row as (label, cols, rhs), so that a change in how
  LPInstance records the LP leaves the digest as it is.

This module imports no pytest, so any interpreter can check the corpus:

    python tests/identity_corpus.py --check

prints each group's result and exits 1 naming every group and digest that
differs.  It compares digests, not asserts, so it checks the same under
python -O, which strips asserts.  A change meant to alter any of these
regenerates the file with

    python tests/identity_corpus.py --write

and says why in its description.  tests/test_identity.py runs the same
check under pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import cbd.simplex  # noqa: E402
from cbd import (  # noqa: E402
    analyze,
    build_coupling_lp,
    enumerate_variants,
    liar_system,
    parse_system_text,
    uniform_mixture,
)
from cbd.serialization import dumps_indented, report_to_dict  # noqa: E402

from helpers import lp_views, rand_system  # noqa: E402
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
        # 1,000-context point-mass chains: the deterministic path's reports
        "chain-det": lambda: [
            parse_system_text(inp.data.text) for inp in first_inputs("chain-det", 8)
        ],
    }


def committed():
    """The digests in tests/identity.json, by group."""
    return json.loads(CORPUS.read_text(encoding="utf-8"))


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
        "support_lps": sha256_lines(lp_text(s, build_coupling_lp(s)) for s in systems),
    }


def lp_text(system, lp):
    views = lp_views(system, lp)
    rows = tuple((row.label, row.cols, row.rhs) for row in views.rows)
    return repr((lp.variables, views.atoms, rows, lp.objective, lp.start, lp.layout))


def check():
    """Compare every group's digests with the committed ones; print one line
    per group and return the number of differing digests."""
    want = committed()
    differing = 0
    for group, make in corpus().items():
        got = digests(make())
        bad = [key for key in want[group] if got.get(key) != want[group][key]]
        bad += [key for key in got if key not in want[group]]
        differing += len(bad)
        print(f"{group}: {'differs in ' + ', '.join(bad) if bad else 'ok'}")
    return differing


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write | --check")
    doc = {group: digests(make()) for group, make in corpus().items()}
    CORPUS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}: {sum(g['systems'] for g in doc.values())} systems")
