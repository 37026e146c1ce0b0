"""Contextuality classification.

A system is contextual when its variables resist coupling: the least total
same-content mismatch achievable jointly (system_delta) exceeds the sum of
the per-pair minimums achievable in isolation (delta_sum).  The difference
cnt = system_delta - delta_sum is the degree of contextuality; it is zero or
positive for every system, and the verdict is exact because every quantity is
a rational computed without rounding.

A deterministic system (every context a point mass) is reported from its
fixed values alone, held as one map per context from each of its contents
to its fixed outcome: their joint assignment is its only coupling, so each
pair's isolated delta is 1 where its two fixed values differ and 0
otherwise, a connection is consistent when all its fixed values agree, and
the marginal index is never built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coupling import CouplingWitness, delta_pairs, resolve_atom_cap, system_delta
from .errors import InternalError, NotDeterministic
from .systems import (
    ZERO, Consistency, PairDelta, System, is_consistently_connected, isolated_deltas,
)

__all__ = [
    "PairDelta",
    "AnalysisReport",
    "is_deterministic",
    "analyze",
    "analyze_deterministic",
]


class AnalysisReport(NamedTuple):
    """Everything the classification produced, exactly.

    delta_sum is the in-isolation baseline, system_delta the in-system
    minimum, cnt their difference; contextual means cnt > 0.  The witness is
    one optimal coupling (for a deterministic system, its unique coupling).
    """

    n_contents: int
    n_contexts: int
    n_variables: int
    pair_deltas: tuple[PairDelta, ...]
    delta_sum: Fraction
    system_delta: Fraction
    cnt: Fraction
    contextual: bool
    connection_consistent: dict[str, bool]
    consistent: bool
    deterministic: bool
    witness: CouplingWitness


def is_deterministic(system: System) -> bool:
    """True when every context distribution is a point mass.

    A validated table holds its nonzero support only, summing to 1, so a
    point mass is a table of one cell."""
    return all(len(blk.table) == 1 for blk in system.blocks)


_ONE = Fraction(1)


def _report(
    system: System,
    delta: Fraction,
    witness: CouplingWitness,
    deterministic: bool,
    pairs: list[PairDelta],
    delta0: Fraction,
    consistency: Consistency,
) -> AnalysisReport:
    """Assemble the report around an in-system minimum and its coupling,
    the PairDelta of every pair in System.pairs() order (held as given),
    their sum delta0 and the connections' consistency."""
    cnt = delta - delta0
    if cnt < 0:
        raise InternalError(
            f"system coupling {delta} beat the isolated minimums {delta0}"
        )
    return AnalysisReport(
        n_contents=len(system.content_ids),
        n_contexts=len(system.blocks),
        n_variables=len(system.variables),
        pair_deltas=tuple(pairs),
        delta_sum=delta0,
        system_delta=delta,
        cnt=cnt,
        contextual=cnt > 0,
        connection_consistent=consistency.per_connection,
        consistent=consistency.overall,
        deterministic=deterministic,
        witness=witness,
    )


def analyze_deterministic(system: System) -> AnalysisReport:
    """Fast path for deterministic systems, exact at any size.

    The fixed values, jointly, are the system's unique coupling.  Each
    pair's isolated delta (of two point masses) is 1 when its two fixed
    values differ and 0 otherwise, a connection is consistent when all its
    fixed values agree, and system_delta is the number of mismatched pairs.
    So system_delta == delta_sum and cnt == 0: a deterministic system is
    never contextual.  The whole report comes from the fixed values, read
    in one pass over the blocks into a map per context, content -> fixed
    outcome, which each pair and the witness atom then index; no marginal
    is computed.
    """
    fixed: dict[str, dict[str, str]] = {}  # context -> content -> fixed outcome
    for blk in system.blocks:
        if len(blk.table) != 1:
            raise NotDeterministic(f"context {blk.context!r} is not a point mass")
        (cell,) = blk.table
        fixed[blk.context] = dict(zip(blk.contents, cell))
    per = dict.fromkeys(system.content_ids, True)
    pairs = []
    mismatches = 0
    for q, ca, cb in system.pairs():
        if fixed[ca][q] != fixed[cb][q]:
            pairs.append(PairDelta(q, ca, cb, _ONE))
            per[q] = False
            mismatches += 1
        else:
            pairs.append(PairDelta(q, ca, cb, ZERO))
    atom = tuple([fixed[c][q] for c, q in system.variables])
    witness = CouplingWitness(
        variables=system.variables, weights=((atom, _ONE),)
    )
    delta = Fraction(mismatches)
    return _report(
        system, delta, witness, True, pairs, delta, Consistency(per, all(per.values()))
    )


def analyze(system: System, *, atom_cap: int | None = None) -> AnalysisReport:
    """Classify a system as contextual or noncontextual.

    Deterministic systems are reported from their fixed values.  Everything
    else builds and solves the coupling LP exactly and reads the isolated
    deltas, their sum and the consistency from the marginal index; the
    deltas are computed once, for the LP's lower bound, and read again
    here.  The atom cap is resolved and validated on every path.
    """
    atom_cap = resolve_atom_cap(atom_cap)
    if is_deterministic(system):
        return analyze_deterministic(system)
    delta, witness = system_delta(system, atom_cap=atom_cap)
    return _report(
        system,
        delta,
        witness,
        False,
        delta_pairs(system),
        isolated_deltas(system).total,
        is_consistently_connected(system),
    )
