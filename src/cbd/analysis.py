"""Contextuality classification.

A system is contextual when its variables resist coupling: the least total
same-content mismatch achievable jointly (system_delta) exceeds the sum of
the per-pair minimums achievable in isolation (delta_sum).  The difference
cnt = system_delta - delta_sum is the degree of contextuality; it is zero or
positive for every system, and the verdict is exact because every quantity is
a rational computed without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coupling import CouplingWitness, delta_pairs, resolve_atom_cap, system_delta
from .errors import InternalError, NotDeterministic
from .systems import System, is_consistently_connected, to_form

__all__ = [
    "PairDelta",
    "AnalysisReport",
    "is_deterministic",
    "analyze",
    "analyze_deterministic",
]


@dataclass(frozen=True)
class PairDelta:
    content: str
    context_a: str
    context_b: str
    delta: Fraction


@dataclass(frozen=True)
class AnalysisReport:
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
    """True when every context distribution is a point mass."""
    return all(
        any(p == 1 for p in blk.table.values()) for blk in system.blocks
    )


def _fixed_values(system: System) -> dict[tuple[str, str], str]:
    """The fixed outcome of every variable of a deterministic system."""
    values: dict[tuple[str, str], str] = {}
    for blk in system.blocks:
        cell = next((c for c, p in blk.table.items() if p == 1), None)
        if cell is None:
            raise NotDeterministic(
                f"context {blk.context!r} is not a point mass"
            )
        for q, o in zip(blk.contents, cell):
            values[(blk.context, q)] = o
    return values


def _report(
    system: System,
    delta: Fraction,
    witness: CouplingWitness,
    deterministic: bool,
) -> AnalysisReport:
    """Assemble the report around an in-system minimum and its coupling."""
    pairs = tuple(PairDelta(*pair) for pair in delta_pairs(system))
    den, nums = to_form(p.delta for p in pairs)
    delta0 = Fraction(sum(nums), den)
    cnt = delta - delta0
    if cnt < 0:
        raise InternalError(
            f"system coupling {delta} beat the isolated minimums {delta0}"
        )
    consistency = is_consistently_connected(system)
    return AnalysisReport(
        n_contents=len(system.content_ids),
        n_contexts=len(system.blocks),
        n_variables=len(system.variables),
        pair_deltas=pairs,
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

    The fixed values, jointly, are the system's unique coupling, so
    system_delta is the number of pairs whose two fixed values differ.  Each
    pair's isolated delta (of two point masses) is 1 exactly then and 0
    otherwise, so system_delta == delta_sum and cnt == 0: a deterministic
    system is never contextual.
    """
    values = _fixed_values(system)
    mismatches = sum(
        values[(ca, q)] != values[(cb, q)] for q, ca, cb in system.pairs()
    )
    atom = tuple(values[v] for v in system.variables)
    witness = CouplingWitness(
        variables=system.variables, weights=((atom, Fraction(1)),)
    )
    return _report(system, Fraction(mismatches), witness, deterministic=True)


def analyze(
    system: System,
    *,
    atom_cap: int | None = None,
    deterministic_fast_path: bool = True,
) -> AnalysisReport:
    """Classify a system as contextual or noncontextual.

    Deterministic systems take the closed-form path unless
    deterministic_fast_path is False (useful to cross-check the LP against
    it).  Everything else builds and solves the coupling LP exactly.  The
    atom cap is resolved and validated on every path, as `cbd analyze` does.
    """
    atom_cap = resolve_atom_cap(atom_cap)
    deterministic = is_deterministic(system)
    if deterministic_fast_path and deterministic:
        return analyze_deterministic(system)
    delta, witness = system_delta(system, atom_cap=atom_cap)
    return _report(system, delta, witness, deterministic)
