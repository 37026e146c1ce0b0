"""Shared builders and seeded random generators for the tests.

Everything takes an explicit random.Random so failures reproduce; all
probabilities are exact Fractions built from integer weights.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

import cbd.analysis
import cbd.simplex
from cbd import (
    System,
    build_coupling_lp,
    delta_pairs,
    is_consistently_connected,
    solve_lp,
    system_delta,
    validate_system,
)
from cbd.coupling import LPSolution
from cbd.oracle import coupling_lp, enumerate_min

import referee_simplex

PM = ("+1", "-1")
P, M = "+1", "-1"


def pm_registry(*names):
    return {q: PM for q in names}


def corr_table(a: Fraction, b: Fraction, r: Fraction):
    """2x2 table over ('+1','-1')^2 with margins a, b and (+1,+1) mass r."""
    return {
        (P, P): r,
        (P, M): a - r,
        (M, P): b - r,
        (M, M): 1 - a - b + r,
    }


def c2_system(a1, b1, r1, a2, b2, r2) -> System:
    """Two contexts measuring the same binary pair."""
    return validate_system(
        pm_registry("q1", "q2"),
        [
            ("c1", ("q1", "q2"), corr_table(a1, b1, r1)),
            ("c2", ("q1", "q2"), corr_table(a2, b2, r2)),
        ],
    )


def order_effect_system(a=Fraction(1, 4), b=Fraction(1, 2)) -> System:
    """Same marginals in both contexts, opposite correlations."""
    return validate_system(
        pm_registry("q1", "q2"),
        [
            ("c1", ("q1", "q2"),
             {(P, P): a, (P, M): Fraction(0), (M, P): b - a, (M, M): 1 - b}),
            ("c2", ("q1", "q2"),
             {(P, P): Fraction(0), (P, M): a, (M, P): b, (M, M): 1 - a - b}),
        ],
    )


SIGN = {P: 1, M: -1}


def rank_n_cycle_weights(rng, n, biased):
    """Integer cell weights 1..9 for a full-support binary rank-n cycle.

    Context i measures (q_i, q_i+1).  A biased cycle adds 20 to the agreeing
    cells of every context but one and to the disagreeing cells of that one,
    pushing the product expectations towards an odd number of sign flips.
    """
    anti = rng.randrange(n)
    contexts = []
    for i in range(n):
        weights = {(x, y): rng.randint(1, 9) for x in (P, M) for y in (P, M)}
        if biased:
            for x, y in weights:
                if (x == y) == (i != anti):
                    weights[(x, y)] += 20
        contexts.append((f"c{i + 1}", (f"q{i + 1}", f"q{(i + 1) % n + 1}"), weights))
    return contexts


def kd_mean(weights, f):
    """The mean of f(x, y) under raw weights over pairs of outcomes."""
    total = sum(weights.values())
    return Fraction(sum(w * f(x, y) for (x, y), w in weights.items()), total)


def kd_mean_gap(contexts):
    """D of a binary cyclic system, from raw weights: the sum over contents
    of |<R>_c - <R>_c'|."""
    means = {}
    for _, (a, b), weights in contexts:
        means.setdefault(a, []).append(kd_mean(weights, lambda x, y: SIGN[x]))
        means.setdefault(b, []).append(kd_mean(weights, lambda x, y: SIGN[y]))
    return sum(abs(u - v) for u, v in means.values())


def kd_closed_form_cnt(contexts):
    """Kujala-Dzhafarov degree of a binary cyclic system, from raw weights:
    max(0, (s_odd(<R_i R_i+1>) - D - (n - 2)) / 2), with D = kd_mean_gap."""
    products = [kd_mean(w, lambda x, y: SIGN[x] * SIGN[y]) for _, _, w in contexts]
    s_odd = sum(abs(x) for x in products)
    if sum(x < 0 for x in products) % 2 == 0:
        s_odd -= 2 * min(abs(x) for x in products)
    return max(Fraction(0), (s_odd - kd_mean_gap(contexts) - (len(contexts) - 2)) / 2)


def cycle_system(n, contexts):
    return validate_system(
        pm_registry(*(f"q{i + 1}" for i in range(n))),
        [
            (c, qs, {cell: Fraction(w, sum(ws.values())) for cell, w in ws.items()})
            for c, qs, ws in contexts
        ],
    )


def four_cycle_name_system() -> System:
    """Deterministic four-cycle whose connections all disagree."""
    fixed = {
        "c1": (("q1", "q2"), (P, M)),
        "c2": (("q2", "q3"), (P, M)),
        "c3": (("q3", "q4"), (P, M)),
        "c4": (("q1", "q4"), (M, P)),
    }
    blocks = [
        (ctx, qs, {cell: Fraction(1)}) for ctx, (qs, cell) in fixed.items()
    ]
    return validate_system(pm_registry("q1", "q2", "q3", "q4"), blocks)


def rand_weights(rng: random.Random, n: int, max_weight: int = 6):
    """Exact distribution over n cells from small integer weights."""
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(n)]
        total = sum(weights)
        if total:
            return [Fraction(w, total) for w in weights]


def rand_marginal_probs(rng: random.Random, outcomes=PM):
    ps = rand_weights(rng, len(outcomes))
    return dict(zip(outcomes, ps))


def rand_corr_params(rng: random.Random, den: int = 8):
    """Valid (a, b, r): margins plus a feasible joint (+1,+1) mass."""
    a = Fraction(rng.randint(0, den), den)
    b = Fraction(rng.randint(0, den), den)
    lo = max(Fraction(0), a + b - 1)
    hi = min(a, b)
    r = lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
    return a, b, r


def rand_c2(rng: random.Random, den: int = 8) -> System:
    a1, b1, r1 = rand_corr_params(rng, den)
    a2, b2, r2 = rand_corr_params(rng, den)
    return c2_system(a1, b1, r1, a2, b2, r2)


def rand_c2_consistent(rng: random.Random, den: int = 8) -> System:
    """Both contexts share margins; only the correlations differ."""
    a, b, r1 = rand_corr_params(rng, den)
    lo = max(Fraction(0), a + b - 1)
    hi = min(a, b)
    r2 = lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
    return c2_system(a, b, r1, a, b, r2)


def rand_c2_equal_correlation(rng: random.Random, den: int = 8) -> System:
    """Product expectations forced equal across the two contexts."""
    a1, b1, r1 = rand_corr_params(rng, den)
    target = 1 - 2 * a1 - 2 * b1 + 4 * r1
    for _ in range(1000):
        a2 = Fraction(rng.randint(0, den), den)
        b2 = Fraction(rng.randint(0, den), den)
        r2 = (target - 1 + 2 * a2 + 2 * b2) / 4
        if max(Fraction(0), a2 + b2 - 1) <= r2 <= min(a2, b2):
            return c2_system(a1, b1, r1, a2, b2, r2)
    return c2_system(a1, b1, r1, a1, b1, r1)


def rand_system(
    rng: random.Random,
    max_contents: int = 4,
    max_contexts: int = 4,
    max_block: int = 2,
    ternary_share: float = 0.0,
    max_atoms: int = 256,
) -> System:
    """Random valid system with a bounded atom count."""
    while True:
        n_q = rng.randint(1, max_contents)
        n_c = rng.randint(1, max_contexts)
        contents = [f"q{i}" for i in range(1, n_q + 1)]
        outcomes = {
            q: (("a", "b", "c") if rng.random() < ternary_share else PM)
            for q in contents
        }
        shape = []
        for j in range(1, n_c + 1):
            size = rng.randint(1, min(max_block, n_q))
            shape.append((f"c{j}", tuple(rng.sample(contents, size))))
        atoms = 1
        for _, qs in shape:
            for q in qs:
                atoms *= len(outcomes[q])
        if atoms > max_atoms:
            continue
        blocks = []
        for ctx, qs in shape:
            cells = list(itertools.product(*(outcomes[q] for q in qs)))
            probs = rand_weights(rng, len(cells))
            blocks.append((ctx, qs, dict(zip(cells, probs))))
        return validate_system(outcomes, blocks)


def rand_deterministic(
    rng: random.Random,
    max_contents: int = 5,
    max_contexts: int = 5,
    ternary_share: float = 0.2,
    max_block: int | None = None,
) -> System:
    """Random deterministic system: every context a point mass."""
    n_q = rng.randint(1, max_contents)
    n_c = rng.randint(1, max_contexts)
    contents = [f"q{i}" for i in range(1, n_q + 1)]
    outcomes = {
        q: (("a", "b", "c") if rng.random() < ternary_share else PM)
        for q in contents
    }
    blocks = []
    for j in range(1, n_c + 1):
        cap = n_q if max_block is None else min(max_block, n_q)
        size = rng.randint(1, cap)
        qs = tuple(rng.sample(contents, size))
        cell = tuple(rng.choice(outcomes[q]) for q in qs)
        blocks.append((f"c{j}", qs, {cell: Fraction(1)}))
    return validate_system(outcomes, blocks)


def relabel(system: System) -> System:
    """Rename every content and context so the lexicographic order reverses."""
    names = sorted(system.outcomes)
    content_map = {q: f"z{len(names) - i:02d}" for i, q in enumerate(names)}
    ctxs = system.context_ids
    context_map = {c: f"y{len(ctxs) - i:02d}" for i, c in enumerate(ctxs)}
    outcomes = {content_map[q]: v for q, v in system.outcomes.items()}
    blocks = [
        (
            context_map[blk.context],
            tuple(content_map[q] for q in blk.contents),
            dict(blk.table),
        )
        for blk in system.blocks
    ]
    return validate_system(outcomes, blocks)


def relabel_outcomes(system: System, content: str, perm: dict) -> System:
    """Rename content's outcome labels by perm (a permutation of its outcome
    set) in every context that measures it; the registry stays as it is."""
    blocks = []
    for blk in system.blocks:
        if content in blk.contents:
            i = blk.contents.index(content)
            table = {
                cell[:i] + (perm[cell[i]],) + cell[i + 1:]: p
                for cell, p in blk.table.items()
            }
        else:
            table = dict(blk.table)
        blocks.append((blk.context, blk.contents, table))
    return validate_system(system.outcomes, blocks)


def long_denominator_system():
    """One content measured in two contexts whose p(x) values are within the
    digit limit, but whose delta has a 28,302-bit denominator."""
    p1, p2 = Fraction(1, 3**9000), Fraction(1, 7**5000)
    return validate_system(
        {"q": ("x", "y")},
        [
            ("c1", ("q",), {("x",): p1, ("y",): 1 - p1}),
            ("c2", ("q",), {("x",): p2, ("y",): 1 - p2}),
        ],
    )


def fold_digits(text):
    """The integer a digit string spells, read 1,000 digits at a time."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def fold_exact(text):
    num, den = text.split("/")
    return Fraction(fold_digits(num), fold_digits(den))


def lp_path_report(system: System):
    """The report of a deterministic system built as analyze builds any
    other: the coupling LP for system_delta, the marginal index for the
    isolated deltas and the consistency, their sum added here."""
    delta, witness = system_delta(system)
    pairs = delta_pairs(system)
    return cbd.analysis._report(
        system,
        delta,
        witness,
        True,
        pairs,
        sum((d for *_, d in pairs), Fraction(0)),
        is_consistently_connected(system),
    )


Row = namedtuple("Row", "label cols rhs")


def lp_views(system, lp):
    """The support LP lp of system spelled out, for the tests.

    atoms: every atom, as lp.atom decodes it.  rows: each row as Row(label,
    cols, rhs), its label the cell as "context[outcomes]" with the outcomes
    in the context's own contents order (contexts in block order, the order
    of lp.cells), or "mass"; cols the atoms of its layout cell, runs of
    stride consecutive indices, one run every stride * count.  dense: each
    row as a 0/1 list over the atoms.  rhs and objective: lp's."""
    n = lp.n_atoms
    labels = []
    for blk, cells in zip(system.blocks, lp.cells):
        ordered = sorted(blk.contents)
        where = [ordered.index(q) for q in blk.contents]
        labels += [f"{blk.context}[{','.join(cell[k] for k in where)}]" for cell in cells]
    labels.append("mass")
    rows, dense = [], []
    for label, (stride, count, position), b in zip(labels, lp.layout, lp.rhs):
        starts = range(position * stride, n, stride * count)
        cols = tuple(itertools.chain.from_iterable(range(s, s + stride) for s in starts))
        rows.append(Row(label, cols, b))
        dense.append([0] * n)
        for j in cols:
            dense[-1][j] = 1
    return SimpleNamespace(
        atoms=tuple(lp.atom(i) for i in range(n)),
        rows=tuple(rows),
        dense=dense,
        rhs=lp.rhs,
        objective=lp.objective,
    )


def full_lp(system):
    """The full coupling LP of system, zero cells included, as the oracle
    builds it from the system's tables: atoms, dense (0/1 rows over the
    atoms, each context's cells in the product of its own contents'
    outcomes, then mass), rhs and objective."""
    atoms, rows, rhs, costs = coupling_lp(
        system.outcomes, [(blk.context, blk.contents, blk.table) for blk in system.blocks]
    )
    return SimpleNamespace(atoms=atoms, dense=rows, rhs=rhs, objective=costs)


def is_feasible(lp, weights):
    """Whether weights (atom index -> weight) is a point of lp, an lp_views
    or full_lp spelling: every weight on an atom and nonnegative, and
    A.x = b on the dense rows, exactly."""
    n = len(lp.atoms)
    if any(not 0 <= j < n or w < 0 for j, w in weights.items()):
        return False
    return all(
        sum(w for j, w in weights.items() if row[j]) == b
        for row, b in zip(lp.dense, lp.rhs)
    )


def is_solution(lp, sol):
    """Whether the LPSolution sol is a point of lp whose objective is
    sol.optimum."""
    value = sum(lp.objective[j] * w for j, w in sol.weights.items())
    return is_feasible(lp, sol.weights) and value == sol.optimum


def without_bound(lp):
    """The support LP lp with no lower bound, so that solve_lp runs phase 2
    to the end: a closed form compared with its optimum is then not also
    the bound that stopped the solve."""
    return lp._replace(bound=None)


def lp_cnt(system):
    """cnt from the support LP solved without its lower bound."""
    optimum = solve_lp(without_bound(build_coupling_lp(system))).optimum
    return optimum - sum(d for *_, d in delta_pairs(system))


def two_phase_optimum(lp):
    """The optimum of an lp_views or full_lp spelling by the two-phase
    referee, without a start, through phase 1."""
    optimum, _ = referee_simplex.solve_min(list(lp.objective), lp.dense, list(lp.rhs))
    return optimum


def solves_from_start(system, lp):
    """The support LP lp of system solved from lp.start twice: by solve_lp,
    and by the referee's dense tableau over the start's rows (lp_views),
    both stopping at lp.bound.
    Returns, per solver, ((optimum, weights), its (row, column) pivots)."""
    revised, dense = [], []
    pivot, dense_pivot = cbd.simplex._Revised.pivot, referee_simplex._Tableau.pivot

    def recording(tab, r, s, col):
        revised.append((r, s))
        pivot(tab, r, s, col)

    def dense_recording(tab, r, s):
        dense.append((r, s))
        dense_pivot(tab, r, s)

    cbd.simplex._Revised.pivot = recording
    referee_simplex._Tableau.pivot = dense_recording
    try:
        sol = solve_lp(lp)
        rows = lp_views(system, lp).dense
        ref = referee_simplex.solve_min(
            list(lp.objective),
            [rows[r] for r, _ in lp.start],
            [lp.rhs[r] for r, _ in lp.start],
            start=[c for _, c in lp.start],
            bound=lp.bound,
        )
    finally:
        cbd.simplex._Revised.pivot = pivot
        referee_simplex._Tableau.pivot = dense_pivot
    return ((sol.optimum, sol.weights), revised), (ref, dense)


def on_full_lp(full, sup, sol):
    """A solution of the support LP, its atoms (sup, an lp_views spelling)
    mapped by outcome tuple to those of the full LP full (full_lp)."""
    index = {atom: i for i, atom in enumerate(full.atoms)}
    weights = {index[sup.atoms[i]]: w for i, w in sol.weights.items()}
    return LPSolution(optimum=sol.optimum, weights=weights)


@functools.cache
def order_effect_oracle_min():
    """The basis-enumeration optimum of order_effect_system()'s full coupling
    LP, enumerated once."""
    full = full_lp(order_effect_system())
    best, _, _ = enumerate_min(full.objective, full.dense, full.rhs)
    return best
