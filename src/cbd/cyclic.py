"""Cyclic systems and the rank-2 closed-form criterion.

A cyclic system of rank n has n contents and n contexts arranged in a single
ring: every context measures exactly two contents, every content appears in
exactly two contexts, and the content-context incidence graph is one cycle.
For rank 2 with binary '+1'/'-1' outcomes, contextuality has a closed form:
the two contexts measure the same pair, and the system is contextual exactly
when the product expectations differ by more than the connections' marginal
expectations can explain,

    |<R1 R2>_c1 - <R1 R2>_c2|  >  |<R1>_c1 - <R1>_c2| + |<R2>_c1 - <R2>_c2|.

Higher ranks go through the coupling LP; no closed form is attempted there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NotCyclicRank2
from .systems import System, expectation


@dataclass(frozen=True)
class CyclicStructure:
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
    contents = system.content_ids
    n = len(system.blocks)
    if n < 2 or len(contents) != n:
        return None
    for blk in system.blocks:
        if len(blk.contents) != 2:
            return None
    if any(len(system.contexts_of(q)) != 2 for q in contents):
        return None

    # walk the ring; a disjoint union of smaller rings will close early
    start = system.blocks[0].context  # blocks are sorted, so the least id
    first_pair = sorted(system.block(start).contents)
    ctx, q_in, q_out = start, first_pair[0], first_pair[1]
    cycle = []
    for _ in range(n):
        cycle.append((ctx, q_in, q_out))
        nxt = next(c for c in system.contexts_of(q_out) if c != ctx)
        pair = system.block(nxt).contents
        q_next = pair[0] if pair[1] == q_out else pair[1]
        ctx, q_in, q_out = nxt, q_out, q_next
    if ctx != start or q_in != first_pair[0]:
        return None  # closed a shorter loop: more than one ring
    if len({c for c, _, _ in cycle}) != n:
        return None
    return CyclicStructure(rank=n, cycle=tuple(cycle))


class C2Criterion(NamedTuple):
    contextual: bool
    margin: Fraction
    lhs: Fraction
    rhs: Fraction


def c2_criterion(system: System) -> C2Criterion:
    """Closed-form verdict for a rank-2 cyclic system with '+1'/'-1' outcomes.

    Returns the verdict together with margin = lhs - rhs, the amount by which
    the product-expectation difference exceeds what inconsistent connections
    account for.  Raises NotCyclicRank2 when the structure does not apply and
    NotPlusMinusOne when an involved outcome set is not the canonical binary
    one.
    """
    structure = detect_cyclic(system)
    if structure is None or structure.rank != 2:
        raise NotCyclicRank2("the closed-form criterion needs a rank-2 ring")
    (ca, q1, q2), (cb, _, _) = structure.cycle
    lhs = abs(expectation(system, ca, (q1, q2)) - expectation(system, cb, (q1, q2)))
    rhs = abs(expectation(system, ca, (q1,)) - expectation(system, cb, (q1,))) + abs(
        expectation(system, ca, (q2,)) - expectation(system, cb, (q2,))
    )
    margin = lhs - rhs
    return C2Criterion(contextual=margin > 0, margin=margin, lhs=lhs, rhs=rhs)
