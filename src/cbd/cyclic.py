"""Cyclic systems and their closed-form contextuality criterion.

A cyclic system of rank n has n contents and n contexts arranged in a single
ring: every context measures exactly two contents, every content appears in
exactly two contexts, and the content-context incidence graph is one cycle.
With binary '+1'/'-1' outcomes its degree of contextuality has a closed form
(Kujala & Dzhafarov 2016; Dzhafarov, Kujala & Cervantes 2020):

    cnt = max(0, (s_odd(<R_i R_i+1>) - D - (n - 2)) / 2),

where s_odd(x) is the largest sum of the x_i with an odd number of them
negated, and D sums |<R>_c - <R>_c'| over the n connections.  At rank 2,
s_odd(a, b) = |a - b|, so the system is contextual exactly when

    |<R1 R2>_c1 - <R1 R2>_c2|  >  |<R1>_c1 - <R1>_c2| + |<R2>_c1 - <R2>_c2|.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotCyclic, NotPlusMinusOne
from .systems import System, check_plus_minus_one, isolated_deltas, s_odd


class CyclicStructure(NamedTuple):
    """The detected ring: rank and one canonical traversal.

    cycle holds (context, content_in, content_out) triples: the context
    measures exactly those two contents, and content_out links to the next
    triple's context.  The traversal starts at the lexicographically least
    context and leaves it through the lexicographically larger of its two
    contents, which pins down rotation and direction.
    """

    rank: int
    cycle: tuple[tuple[str, str, str], ...]


def detect_cyclic(system: System) -> CyclicStructure | None:
    """Return the system's ring structure, or None if it is not cyclic."""
    blocks = system.blocks
    n = len(blocks)
    if n < 2:
        return None
    # links[q]: each context measuring content q, with its other content
    links: dict[str, list[tuple[str, str]]] = {}
    for blk in blocks:
        if len(blk.contents) != 2:
            return None
        a, b = blk.contents
        links.setdefault(a, []).append((blk.context, b))
        links.setdefault(b, []).append((blk.context, a))
    if len(links) != n or any(len(link) != 2 for link in links.values()):
        return None

    # every context and content now has degree two, so the walk returns to
    # its start; a disjoint union of smaller rings closes before n steps
    start = blocks[0].context  # blocks are sorted, so the least id
    ctx, (q_in, q_out) = start, sorted(blocks[0].contents)
    cycle = []
    while not cycle or ctx != start:
        cycle.append((ctx, q_in, q_out))
        (c1, q1), (c2, q2) = links[q_out]
        ctx, q_in, q_out = (c2, q_out, q2) if c1 == ctx else (c1, q_out, q1)
    return CyclicStructure(rank=n, cycle=tuple(cycle)) if len(cycle) == n else None


class CyclicCriterion(NamedTuple):
    contextual: bool
    margin: Fraction
    lhs: Fraction
    rhs: Fraction
    cnt: Fraction


def cyclic_criterion(system: System) -> CyclicCriterion:
    """Closed-form verdict for a cyclic system over '+1'/'-1' outcomes.

    lhs is s_odd of the ring's product expectations, rhs is the connections'
    total mean gap plus n - 2, margin = lhs - rhs and cnt = max(0, margin) / 2.
    Raises NotCyclic when the system is not one ring and NotPlusMinusOne when
    a content's outcome set is not the canonical binary one.
    """
    return ring_criterion(system, detect_cyclic(system))


def ring_criterion(system: System, ring: CyclicStructure | None) -> CyclicCriterion:
    """cyclic_criterion of a system, given what detect_cyclic returns for it."""
    lhs, delta_sum, optimum = _closed_form(system, ring)
    # binary marginals: |<R>_c - <R>_c'| = 2 |u - v|, twice the isolated delta
    rhs = 2 * delta_sum + ring.rank - 2
    margin = lhs - rhs
    return CyclicCriterion(margin > 0, margin, lhs, rhs, optimum - delta_sum)


def ring_optimum(system: System) -> Fraction | None:
    """The coupling LP's optimum, delta_sum + cnt, of a ring over '+1'/'-1'
    outcomes; None for any other system."""
    try:
        return _closed_form(system, detect_cyclic(system))[2]
    except (NotCyclic, NotPlusMinusOne):
        return None


def _closed_form(system: System, ring: CyclicStructure | None) -> tuple[Fraction, ...]:
    """The ring's s_odd, delta_sum and coupling LP optimum, delta_sum + cnt =
    max(delta_sum, (s_odd - (n - 2)) / 2), compared in integers so that only
    the one returned is built.  NotPlusMinusOne names the first content, in
    cycle order (each is some triple's content_in), not over '+1'/'-1'; each
    distinct outcome tuple is checked once, under its first content."""
    if ring is None:
        raise NotCyclic("the closed-form criterion needs a cyclic system")
    first: dict[tuple[str, ...], str] = {}
    for _, q, _ in ring.cycle:
        first.setdefault(system.outcomes[q], q)
    for outcomes, q in first.items():
        check_plus_minus_one(f"content {q!r}", outcomes)
    lhs = s_odd(system)
    delta_sum = isolated_deltas(system).total
    num, den = lhs.numerator - (ring.rank - 2) * lhs.denominator, 2 * lhs.denominator
    if num * delta_sum.denominator > delta_sum.numerator * den:
        return lhs, delta_sum, Fraction(num, den)
    return lhs, delta_sum, delta_sum
