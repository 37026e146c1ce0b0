"""Seeded workloads: input generators, verdict paths and exact references.

A verdict is one system through cbd to a JSON report.  Every generator
draws from `random.Random(f"{workload}:{seed}:{index}")`, so a seed fixes
the whole input stream byte for byte.  Each reference is computed from the
generated input alone, without the coupling LP.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import string
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import cbd.cli
from cbd import (
    ContextConstraint,
    EpistemicContext,
    EpistemicSpec,
    analyze,
    enumerate_variants,
    parse_system_text,
    uniform_mixture,
    write_system,
)
from cbd.serialization import report_to_dict

from spans import count_witness

PM = ("+1", "-1")
SIGN = {"+1": 1, "-1": -1}
CELLS = tuple(itertools.product(PM, repeat=2))

RING_RANK = 7  # 2**14 atoms, 2**7 alive after zero-cell fixing, 15 live rows
CYCLIC_RANK = 3  # 2**6 atoms, all alive, 13 rows
CYCLIC_BIAS = 20  # weight added to the correlated cells of a biased cycle
CHAIN_CONTEXTS = 1000


@dataclass(frozen=True)
class Input:
    digest: str  # sha256 of the canonical input text
    data: object


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: int  # fixed so every run reports the same percentile
    make: Callable  # (rng, index) -> (canonical text, data)
    run: Callable  # (data, tracer) -> output
    check: Callable  # (data, output) -> None, or a message naming the mismatch
    contextual: Callable  # data -> bool, from the reference

    def _input(self, seed, index):
        text, data = self.make(random.Random(f"{self.name}:{seed}:{index}"), index)
        return Input(hashlib.sha256(text.encode()).hexdigest(), data)

    def warmup_input(self, seed) -> Input:
        return self._input(seed, "warmup")

    def inputs(self, seed):
        """The seed's input stream; no input repeats within it."""
        seen = set()
        for index in itertools.count():
            inp = self._input(seed, index)
            if inp.digest not in seen:
                seen.add(inp.digest)
                yield inp


def _labels(rng, prefix, n):
    out: list[str] = []
    while len(out) < n:
        label = prefix + "".join(rng.choices(string.ascii_lowercase, k=5))
        if label not in out:
            out.append(label)
    return out


def _system_text(contents, contexts) -> str:
    """System file text for binary contents; contexts hold integer weights."""
    doc = {
        "contents": [{"id": q, "values": list(PM)} for q in contents],
        "contexts": [
            {
                "id": c,
                "contents": list(qs),
                "distribution": [
                    {"outcomes": list(cell), "p": f"{w}/{sum(weights.values())}"}
                    for cell, w in weights.items()
                    if w
                ],
            }
            for c, qs, weights in contexts
        ],
    }
    return json.dumps(doc)


def _exact(report, key) -> Fraction:
    return Fraction(report[key]["exact"])


def library_verdict(text, tracer) -> str:
    """parse_system_text -> analyze -> report_to_dict -> json.dumps."""
    tracer.count("serialization.bytes_in", len(text.encode()))
    system = tracer.call("serialization.parse", parse_system_text, text)
    report = tracer.call("analysis", analyze, system, observe=count_witness)
    doc = tracer.call(
        "serialization.render", report_to_dict, report, include_witness=True
    )
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# ring-sparse: Liar-family rings of equal/unequal constraints, through the CLI


@dataclass(frozen=True)
class Ring:
    spec: EpistemicSpec
    parity: int  # number of 'unequal' contexts, mod 2


def make_ring(rng, index, rank=RING_RANK):
    contents = _labels(rng, "q", rank)
    contexts = _labels(rng, "c", rank)
    rows = []
    for i in range(rank):
        pair = [contents[i], contents[(i + 1) % rank]]
        if rng.random() < 0.5:
            pair.reverse()
        rows.append((contexts[i], pair[0], pair[1], rng.choice(("equal", "unequal"))))
    spec = EpistemicSpec(
        outcomes={q: PM for q in contents},
        contexts=tuple(
            EpistemicContext(
                context=c,
                contents=(a, b),
                constraint=(
                    ContextConstraint.equal()
                    if kind == "equal"
                    else ContextConstraint.unequal()
                ),
            )
            for c, a, b, kind in rows
        ),
    )
    parity = sum(kind == "unequal" for *_, kind in rows) % 2
    return json.dumps(rows), Ring(spec, parity)


def run_ring(ring: Ring, tracer):
    """Build the system with the epistemic layer, write it, analyze via the CLI."""
    variants = tracer.call("epistemic.enumerate_variants", enumerate_variants, ring.spec)
    system = tracer.call(
        "epistemic.uniform_mixture", uniform_mixture, ring.spec, variants
    )
    buf = io.StringIO()
    tracer.call("serialization.write_system", write_system, system, buf)
    text = buf.getvalue()
    tracer.count("serialization.bytes_in", len(text.encode()))
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = tracer.call(
            "cli", cbd.cli.main, ["analyze", "--json", "--witness", "-"]
        )
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return code, out


def check_ring(ring: Ring, output):
    code, out = output
    report = json.loads(out)
    want_code = cbd.cli.EXIT_CONTEXTUAL if ring.parity else cbd.cli.EXIT_OK
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if _exact(report, "cnt") != ring.parity:
        return f"cnt {report['cnt']['exact']}, expected {ring.parity}"
    if _exact(report, "delta_sum") != 0:
        return f"delta_sum {report['delta_sum']['exact']}, expected 0"
    if report["consistent"] is not True:
        return "ring reported not consistently connected"
    return None


# ---------------------------------------------------------------------------
# cyclic-dense: full-support binary cycles, half of them biased to be contextual


@dataclass(frozen=True)
class Cycle:
    text: str
    contexts: tuple  # (context, (content_a, content_b), {cell: int weight})


def make_cycle(rng, index, n=CYCLIC_RANK):
    contents = _labels(rng, "q", n)
    names = _labels(rng, "c", n)
    biased = index == "warmup" or index % 2 == 1
    anti = rng.randrange(n)  # the context whose pair is biased to disagree
    contexts = []
    for i in range(n):
        pair = [contents[i], contents[(i + 1) % n]]
        if rng.random() < 0.5:
            pair.reverse()
        weights = {cell: rng.randint(1, 9) for cell in CELLS}
        if biased:
            for x, y in CELLS:
                if (x == y) == (i != anti):
                    weights[(x, y)] += CYCLIC_BIAS
        contexts.append((names[i], tuple(pair), weights))
    text = _system_text(contents, contexts)
    return text, Cycle(text, tuple(contexts))


def _mean(weights, f) -> Fraction:
    return Fraction(sum(w * f(cell) for cell, w in weights.items()), sum(weights.values()))


def cyclic_reference(contexts) -> tuple[Fraction, Fraction]:
    """(cnt, delta_sum) of a binary cyclic system, in closed form.

    cnt = max(0, (s_odd(<R_i R_i+1>) - D - (n - 2)) / 2), where s_odd is the
    largest signed sum of the product expectations with an odd number of
    minus signs and D sums |<R>_c - <R>_c'| over contents; delta_sum = D / 2.
    """
    n = len(contexts)
    products = []
    means: dict[str, list[Fraction]] = {}
    for _, (a, b), weights in contexts:
        products.append(_mean(weights, lambda c: SIGN[c[0]] * SIGN[c[1]]))
        means.setdefault(a, []).append(_mean(weights, lambda c: SIGN[c[0]]))
        means.setdefault(b, []).append(_mean(weights, lambda c: SIGN[c[1]]))
    gap = sum((abs(u - v) for u, v in means.values()), Fraction(0))
    s_odd = max(
        sum(s * x for s, x in zip(signs, products))
        for signs in itertools.product((1, -1), repeat=n)
        if signs.count(-1) % 2 == 1
    )
    return max(Fraction(0), (s_odd - gap - (n - 2)) / 2), gap / 2


def check_cycle(cycle: Cycle, out):
    report = json.loads(out)
    cnt, delta_sum = cyclic_reference(cycle.contexts)
    if _exact(report, "cnt") != cnt:
        return f"cnt {report['cnt']['exact']}, expected {cnt}"
    if _exact(report, "delta_sum") != delta_sum:
        return f"delta_sum {report['delta_sum']['exact']}, expected {delta_sum}"
    if report["contextual"] is not (cnt > 0):
        return f"contextual {report['contextual']}, expected {cnt > 0}"
    return None


# ---------------------------------------------------------------------------
# chain-det: long open chains of point masses; never contextual, no LP


@dataclass(frozen=True)
class Chain:
    text: str
    cells: tuple  # fixed outcome pair of each context, in chain order


def make_chain(rng, index, n=CHAIN_CONTEXTS):
    contents = [f"q{i:04d}" for i in range(n + 1)]
    cells = tuple((rng.choice(PM), rng.choice(PM)) for _ in range(n))
    contexts = [
        (f"c{i:04d}", (contents[i], contents[i + 1]), {cells[i]: 1}) for i in range(n)
    ]
    text = _system_text(contents, contexts)
    return text, Chain(text, cells)


def check_chain(chain: Chain, out):
    report = json.loads(out)
    # content i+1 is measured by contexts i and i+1
    delta_sum = sum(a[1] != b[0] for a, b in zip(chain.cells, chain.cells[1:]))
    for key, want in (("cnt", 0), ("delta_sum", delta_sum), ("system_delta", delta_sum)):
        if _exact(report, key) != want:
            return f"{key} {report[key]['exact']}, expected {want}"
    if report["contextual"] is not False or report["deterministic"] is not True:
        return "chain not reported deterministic and noncontextual"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ring-sparse",
            tail_percentile=60,
            make=make_ring,
            run=run_ring,
            check=check_ring,
            contextual=lambda ring: ring.parity == 1,
        ),
        Workload(
            name="cyclic-dense",
            tail_percentile=90,
            make=make_cycle,
            run=lambda cycle, tracer: library_verdict(cycle.text, tracer),
            check=check_cycle,
            contextual=lambda cycle: cyclic_reference(cycle.contexts)[0] > 0,
        ),
        Workload(
            name="chain-det",
            tail_percentile=85,
            make=make_chain,
            run=lambda chain, tracer: library_verdict(chain.text, tracer),
            check=check_chain,
            contextual=lambda chain: False,
        ),
    )
}
