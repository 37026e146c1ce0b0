"""Minimal couplings, in isolation and within a whole system.

Content-sharing variables live in different contexts and therefore have no
joint distribution.  A coupling supplies one: jointly distributed stand-ins
whose per-context restrictions reproduce the observed tables.  Two questions
drive the analysis:

* isolation: for one pair of marginals, how small can Pr[X' != Y'] get over
  all couplings of just that pair?  (Closed form: the total variation
  distance; |u - v| for binary marginals.)
* in-system: over couplings of the entire system at once, how small can the
  *total* same-content mismatch get?  That is a linear program over the
  probabilities of global outcome assignments ("atoms").

The gap between the in-system minimum and the sum of isolated minimums is the
degree of contextuality.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import simplex
from .errors import CapExceeded, DomainMismatch, InternalError, InvalidArgument
from .systems import (
    MINUS, PLUS, ZERO, Form, Marginal, System, check_plus_minus_one, marginal_forms,
    to_form,
)

DEFAULT_ATOM_CAP = 2**20
ATOM_CAP_ENV = "CBD_ATOM_CAP"


def resolve_atom_cap(cap: int | None) -> int:
    """The atom cap in force: cap when given, else CBD_ATOM_CAP when set,
    else DEFAULT_ATOM_CAP.  Either source must be a positive integer."""
    if cap is None:
        raw = os.environ.get(ATOM_CAP_ENV)
        if raw is None:
            return DEFAULT_ATOM_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidArgument(f"{ATOM_CAP_ENV} must be an integer, got {raw!r}")
        if cap < 1:
            raise InvalidArgument(f"{ATOM_CAP_ENV} must be positive, got {cap}")
    elif not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise InvalidArgument(f"the atom cap must be a positive integer, got {cap!r}")
    return cap


def check_atom_cap(sizes: Iterable[int], cap: int | None) -> None:
    """Refuse work over prod(sizes) atoms above the cap, before allocating."""
    cap = resolve_atom_cap(cap)
    required = math.prod(sizes)
    if required > cap:
        raise CapExceeded(required, cap)


def _check_coupleable(m1: Marginal, m2: Marginal) -> None:
    if m1.content != m2.content or m1.probs.keys() != m2.probs.keys():
        raise DomainMismatch(
            f"cannot couple {m1.content!r}@{m1.context!r} with "
            f"{m2.content!r}@{m2.context!r}: different contents or outcome sets"
        )


def _total_variation(f1: Form, f2: Form) -> Fraction:
    """The mass f1 puts above f2, for two forms over the same outcome order:
    sum_o max(0, a_o*d2 - b_o*d1) / (d1*d2)."""
    if f1 == f2:
        return ZERO
    (d1, a), (d2, b) = f1, f2
    excess = sum(max(0, x * d2 - y * d1) for x, y in zip(a, b))
    return Fraction(excess, d1 * d2)


def isolated_delta(m1: Marginal, m2: Marginal) -> Fraction:
    """Smallest Pr[X' != Y'] over all couplings of the two marginals.

    Equals the total variation distance (1/2) * sum_o |m1(o) - m2(o)|; for
    binary marginals that is |u - v| with u, v the '+1' probabilities.  As
    both marginals sum to 1, that is the mass m1 puts above m2.  Outcomes
    are matched by key, in m1's key order.
    """
    _check_coupleable(m1, m2)
    return _total_variation(
        to_form(m1.probs.values()), to_form(m2.probs[o] for o in m1.probs)
    )


@dataclass(frozen=True)
class JointTable:
    """Joint distribution of a coupled pair, rows from the first marginal."""

    row_outcomes: tuple[str, ...]
    col_outcomes: tuple[str, ...]
    cells: dict[tuple[str, str], Fraction]

    def row_margin(self) -> dict[str, Fraction]:
        out = {o: ZERO for o in self.row_outcomes}
        for (r, _), p in self.cells.items():
            out[r] += p
        return out

    def col_margin(self) -> dict[str, Fraction]:
        out = {o: ZERO for o in self.col_outcomes}
        for (_, c), p in self.cells.items():
            out[c] += p
        return out

    def discrepancy(self) -> Fraction:
        """Pr[X' != Y'] under this table."""
        return sum(p for (r, c), p in self.cells.items() if r != c)


def min_coupling_pair(m1: Marginal, m2: Marginal) -> JointTable:
    """The minimal coupling of a binary pair: diagonal cells as large as the
    margins allow, so the off-diagonal mass is exactly |u - v|."""
    _check_coupleable(m1, m2)
    check_plus_minus_one(f"minimal coupling of {m1.content!r}", m1.probs)
    u = m1.probs[PLUS]
    v = m2.probs[PLUS]
    lo = min(u, v)
    cells = {
        (PLUS, PLUS): lo,
        (PLUS, MINUS): u - lo,
        (MINUS, PLUS): v - lo,
        (MINUS, MINUS): min(1 - u, 1 - v),
    }
    return JointTable(
        row_outcomes=(PLUS, MINUS), col_outcomes=(PLUS, MINUS), cells=cells
    )


@dataclass(frozen=True)
class LPRow:
    """One equality: the atom weights listed in cols sum to rhs."""

    label: str
    cols: tuple[int, ...]
    rhs: Fraction


@dataclass(frozen=True)
class LPInstance:
    """The system-coupling linear program.

    variables: (context, content) pairs in canonical order; an atom assigns
    one outcome to each.  rows hold one equality per context cell, context by
    context, each context's cells in the atoms' order (the product of its
    contents' outcomes, contents sorted), then the total-mass row; a row's
    label lists its cell's outcomes in the context's own contents order.  The
    objective counts, per atom, how many content-sharing pairs
    (System.pairs()) it assigns different outcomes.

    start: a feasible starting basis as (row index, atom index) pairs.  Its
    rows are independent and imply every other positive row, and its basis
    matrix, in this order, is unit lower-triangular.
    """

    variables: tuple[tuple[str, str], ...]
    atoms: tuple[tuple[str, ...], ...]
    rows: tuple[LPRow, ...]
    objective: tuple[int, ...]
    start: tuple[tuple[int, int], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class LPSolution:
    """Solver result: exact optimum and the nonzero atom weights."""

    optimum: Fraction
    weights: dict[int, Fraction]


def build_coupling_lp(
    system: System, atom_cap: int | None = None, *, support: bool = False
) -> LPInstance:
    """Construct the coupling LP for a validated system.

    One nonnegative unknown per atom (an outcome assignment to every variable
    of the system), one equality per (context, outcome tuple) cell including
    zero-probability cells, plus total mass 1.  A context's rows follow its
    cell list, the order in which its cells vary over the atoms.  Raises
    CapExceeded before materializing anything larger than the cap; the cap
    is checked against the full atom count in either mode.

    support=True builds the support LP instead: only the atoms whose cell in
    every context has positive probability, and only the positive cells' rows
    plus mass, in the full LP's order.  A zero cell forces every atom it
    covers to weight zero, so the two programs have the same optimum, and a
    solution of the support LP solves the full one once its atoms are mapped.
    solve_lp takes only the support LP; the full LP is the definition it is
    checked against.

    Either way the instance carries the north-west-corner start (see
    _north_west_corner), computed from the positive cells alone, so both
    modes give the same start atoms and rows.
    """
    variables = system.variables
    check_atom_cap([len(system.outcomes[q]) for (_, q) in variables], atom_cap)

    # Contexts share no variable, so an atom is one cell per context and the
    # atoms are the product of the contexts' cell lists.  variables sorts the
    # contents within each context, so each list is in sorted-content product
    # order.  Each cell keeps its row label, in blk.contents order, and its
    # probability.
    orders: list[list[str]] = []
    lists: list[list[tuple[str, ...]]] = []
    entries: list[list[tuple[str, Fraction]]] = []
    for blk in system.blocks:
        contents = sorted(blk.contents)
        where = [contents.index(q) for q in blk.contents]
        cells = []
        labelled = []
        for cell in itertools.product(*(system.outcomes[q] for q in contents)):
            as_block = tuple(cell[k] for k in where)
            p = blk.prob(as_block)
            if p or not support:
                cells.append(cell)
                labelled.append((f"{blk.context}[{','.join(as_block)}]", p))
        orders.append(contents)
        lists.append(cells)
        entries.append(labelled)
    # each context's cells extend every atom of the contexts before it, in
    # product order; the tuple is built from a list, not an iterator: a tuple
    # grown from an iterator is resized as it fills, which raised peak RSS by
    # about 0.5 MB over a thousand small verdicts
    prefixes: list[tuple[str, ...]] = [()]
    for cells in lists:
        prefixes = list(
            itertools.starmap(operator.add, itertools.product(prefixes, cells))
        )
    atoms = tuple(prefixes)

    # One row per cell, in list order.  The atoms whose cell in a context
    # sits at list position d: runs of `stride` consecutive indices, one run
    # every `period`.  positive: each context's positive cells as (list
    # position, probability, row index).
    n = len(atoms)
    rows: list[LPRow] = []
    positive: list[list[tuple[int, Fraction, int]]] = []
    strides = []
    stride = n
    for labelled in entries:
        period = stride
        stride //= len(labelled)
        strides.append(stride)
        spots = []
        for d, (label, p) in enumerate(labelled):
            if p:
                spots.append((d, p, len(rows)))
            lo = d * stride
            if stride == 1:
                cols = range(lo, n, period)
            else:
                cols = itertools.chain.from_iterable(
                    range(s, s + stride) for s in range(lo, n, period)
                )
            rows.append(LPRow(label=label, cols=tuple(cols), rhs=p))
        positive.append(spots)
    rows.append(LPRow(label="mass", cols=tuple(range(n)), rhs=Fraction(1)))

    # The objective counts, per atom, the pairs whose two outcomes differ.
    # Over the atoms, a variable's outcomes repeat with its context's period
    # (see _outcome_runs).  A pair's first context comes before its second
    # (blocks and each content's contexts are both sorted), so the first's
    # period is a whole number of the second's, and the pair's pattern of
    # splits over it repeats over the atoms.  A variable's place in its
    # context's cells is its content's place in the sorted contents.
    at = {blk.context: k for k, blk in enumerate(system.blocks)}
    splits = [[0] * n]
    for q, ca, cb in system.pairs():
        a, b = at[ca], at[cb]
        xs = _outcome_runs(lists[a], orders[a].index(q), strides[a])
        ys = _outcome_runs(lists[b], orders[b].index(q), strides[b])
        split = list(map(operator.ne, xs, ys * (len(xs) // len(ys))))
        splits.append(split * (n // len(split)))
    return LPInstance(
        variables=variables,
        atoms=atoms,
        rows=tuple(rows),
        objective=tuple(map(sum, zip(*splits))),
        start=_north_west_corner(positive, strides, len(rows) - 1),
    )


def _outcome_runs(
    cells: Sequence[tuple[str, ...]], place: int, stride: int
) -> list[str]:
    """One period of a variable's outcomes over the atoms: the outcome at
    place in each of its context's cells, stride times each."""
    out = []
    for cell in cells:
        out += [cell[place]] * stride
    return out


def _north_west_corner(
    positive: Sequence[Sequence[tuple[int, Fraction, int]]],
    strides: Sequence[int],
    mass_row: int,
) -> tuple[tuple[int, int], ...]:
    """A basic feasible solution of the coupling LP by the north-west-corner
    rule of the transportation problem (Dantzig, Linear Programming and
    Extensions, 1963), as (row index, atom index) pairs.

    positive[i] lists context i's positive cells in atom-list order as
    (list position, probability, row index); an atom's index is the sum of
    its cells' list positions times strides.  The rule starts at the atom of
    every context's first cell and moves one context at a time to its next
    cell, at the cumulative mass where its current cell is used up: the
    moves are those masses merged in increasing order, ties to the lower
    context, so tied contexts move over zero-weight atoms.  Each move pairs
    the used-up cell's row with the atom it leaves, and the last atom takes
    the mass row.  That is 1 + sum(c_i - 1) atoms, one row per positive cell
    except each context's last, which the mass row and the context's other
    cells imply.  A row's cell is in no later atom, so the basis matrix, in
    this order, is unit lower-triangular.
    """
    _, nums = to_form(p for spots in positive for _, p, _ in spots)
    moves = []
    k = 0
    for i, spots in enumerate(positive):
        used = 0
        for j in range(len(spots) - 1):
            used += nums[k + j]
            moves.append((used, i, j))
        k += len(spots)
    moves.sort()
    atom = sum(spots[0][0] * s for spots, s in zip(positive, strides))
    start = []
    for _, i, j in moves:
        here, after = positive[i][j], positive[i][j + 1]
        start.append((here[2], atom))
        atom += (after[0] - here[0]) * strides[i]
    start.append((mass_row, atom))
    return tuple(start)


def dense_rows(lp: LPInstance, rows: Sequence[LPRow]) -> list[list[int]]:
    """The 0/1 coefficients of rows over every atom, in atom order."""
    n = lp.n_atoms
    out = []
    for row in rows:
        vec = [0] * n
        for c in row.cols:
            vec[c] = 1
        out.append(vec)
    return out


def solve_lp(lp: LPInstance) -> LPSolution:
    """Solve a support LP (build_coupling_lp with support=True) exactly.

    The tableau holds only the start's rows, as the start implies the others,
    and the simplex runs phase 2 from the start's basis.  A full LP with a
    zero cell is refused: the rows that force its zero-cell atoms to weight
    zero would be left out, and those atoms could enter the basis.  The
    solution is solve_min's (optimum, weights) as it is: the weights are the
    nonzero values of an optimal basic feasible solution of the support LP,
    by atom index in ascending order.
    """
    if not lp.start:
        raise ValueError("solve_lp needs an LP with a start basis, got none")
    zero = next((row.label for row in lp.rows if not row.rhs), None)
    if zero is not None:
        raise ValueError(f"solve_lp takes a support LP, but row {zero} has rhs 0")
    rows = [lp.rows[r] for r, _ in lp.start]
    optimum, weights = simplex.solve_min(
        lp.objective,
        dense_rows(lp, rows),
        [row.rhs for row in rows],
        start=[c for _, c in lp.start],
    )
    return LPSolution(optimum=optimum, weights=weights)


def verify_solution(lp: LPInstance, sol: LPSolution) -> bool:
    """Exact recheck of a solution against the instance: nonnegative
    weights, every equality met, and the objective equal to the optimum."""
    if any(not 0 <= c < lp.n_atoms or v < 0 for c, v in sol.weights.items()):
        return False
    for row in lp.rows:
        total = sum(sol.weights.get(c, ZERO) for c in row.cols)
        if total != row.rhs:
            return False
    value = sum(
        lp.objective[c] * v for c, v in sol.weights.items()
    )
    return value == sol.optimum


@dataclass(frozen=True)
class CouplingWitness:
    """An optimal coupling: nonzero atom weights in canonical variable order."""

    variables: tuple[tuple[str, str], ...]
    weights: tuple[tuple[tuple[str, ...], Fraction], ...]


def system_delta(
    system: System, atom_cap: int | None = None
) -> tuple[Fraction, CouplingWitness]:
    """Least total same-content mismatch achievable by any system coupling.

    Returns the exact minimum and one witness coupling attaining it.
    """
    lp = build_coupling_lp(system, atom_cap=atom_cap, support=True)
    try:
        sol = solve_lp(lp)
    except simplex.SimplexError as exc:
        raise InternalError(f"coupling LP solve failed: {exc}") from exc
    witness = CouplingWitness(
        variables=lp.variables,
        weights=tuple((lp.atoms[i], w) for i, w in sol.weights.items()),
    )
    return sol.optimum, witness


def delta_pairs(system: System) -> list[tuple[str, str, str, Fraction]]:
    """Isolated delta for every content-sharing pair.

    Returns (content, context_a, context_b, delta) tuples in System.pairs()
    order, the pair enumeration the LP objective uses, so summing gives the
    in-isolation baseline.  Each delta is isolated_delta of the two
    marginals, computed from their integer forms in the system's index.
    """
    forms = marginal_forms(system)
    return [
        (q, ca, cb, _total_variation(forms[(ca, q)], forms[(cb, q)]))
        for q, ca, cb in system.pairs()
    ]
