"""Shared builders and seeded random generators for the tests.

Everything takes an explicit random.Random so failures reproduce; all
probabilities are exact Fractions built from integer weights.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import cbd.analysis
import cbd.simplex
from cbd import (
    System,
    build_coupling_lp,
    delta_pairs,
    is_consistently_connected,
    system_delta,
    validate_system,
)
from cbd.coupling import LPSolution, dense_rows
from cbd.oracle import enumerate_min

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


def kd_closed_form_cnt(contexts):
    """Kujala-Dzhafarov degree of a binary cyclic system, from raw weights:
    max(0, (s_odd(<R_i R_i+1>) - D - (n - 2)) / 2), with D the sum over
    contents of |<R>_c - <R>_c'|."""
    products = []
    means = {}
    for _, (a, b), weights in contexts:
        total = sum(weights.values())

        def mean(f):
            return Fraction(sum(w * f(x, y) for (x, y), w in weights.items()), total)

        products.append(mean(lambda x, y: SIGN[x] * SIGN[y]))
        means.setdefault(a, []).append(mean(lambda x, y: SIGN[x]))
        means.setdefault(b, []).append(mean(lambda x, y: SIGN[y]))
    gap = sum(abs(u - v) for u, v in means.values())
    s_odd = sum(abs(x) for x in products)
    if sum(x < 0 for x in products) % 2 == 0:
        s_odd -= 2 * min(abs(x) for x in products)
    return max(Fraction(0), (s_odd - gap - (len(contexts) - 2)) / 2)


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
    isolated deltas and the consistency."""
    delta, witness = system_delta(system)
    return cbd.analysis._report(
        system,
        delta,
        witness,
        True,
        delta_pairs(system),
        is_consistently_connected(system),
    )


def lp_dense(lp):
    """Dense constraint matrix and rhs of an LPInstance, for the oracle."""
    rows = []
    for r in lp.rows:
        vec = [0] * lp.n_atoms
        for c in r.cols:
            vec[c] = 1
        rows.append(vec)
    return rows, [r.rhs for r in lp.rows]


def two_phase_optimum(lp):
    """The optimum of a full or support LP by solve_min without a start,
    through phase 1."""
    status, optimum, _ = cbd.simplex.solve_min(
        list(lp.objective), dense_rows(lp, lp.rows), [row.rhs for row in lp.rows]
    )
    assert status == "optimal"
    return optimum


def on_full_lp(full, sup, sol):
    """A solution of the support LP sup, its atoms mapped to those of the
    full LP full."""
    index = {atom: i for i, atom in enumerate(full.atoms)}
    weights = {index[sup.atoms[i]]: w for i, w in sol.weights.items()}
    return LPSolution(optimum=sol.optimum, weights=weights)


@functools.cache
def order_effect_oracle_min():
    """The basis-enumeration optimum of order_effect_system()'s full coupling
    LP.  Enumerating the 16-atom LP's bases takes seconds, so it runs once."""
    lp = build_coupling_lp(order_effect_system())
    rows, rhs = lp_dense(lp)
    best, _, _ = enumerate_min(list(lp.objective), rows, rhs)
    return best
