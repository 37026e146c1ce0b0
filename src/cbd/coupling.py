"""Minimal couplings, in isolation and within a whole system.

Content-sharing variables live in different contexts and therefore have no
joint distribution.  A coupling supplies one: jointly distributed stand-ins
whose per-context restrictions reproduce the observed tables.  Two questions
drive the analysis:

* isolation: for one pair of marginals, how small can Pr[X' != Y'] get over
  all couplings of just that pair?  (Closed form: the total variation
  distance; |u - v| for binary marginals.  delta_pairs reads it off the
  system's marginal index.)
* in-system: over couplings of the entire system at once, how small can the
  *total* same-content mismatch get?  That is a linear program over the
  probabilities of global outcome assignments ("atoms").

The gap between the in-system minimum and the sum of isolated minimums is the
degree of contextuality.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import simplex
from .cyclic import ring_optimum
from .errors import CapExceeded, InternalError, InvalidArgument
from .systems import ZERO, PairDelta, System, isolated_deltas, to_form

DEFAULT_ATOM_CAP = 2**20


def resolve_atom_cap(cap: int | None) -> int:
    """The atom cap in force: cap when given, else DEFAULT_ATOM_CAP.  A
    given cap must be a positive integer."""
    if cap is None:
        return DEFAULT_ATOM_CAP
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise InvalidArgument(f"the atom cap must be a positive integer, got {cap!r}")
    return cap


def check_atom_cap(required: int, cap: int | None) -> None:
    """Refuse work over required atoms above the cap, before allocating."""
    cap = resolve_atom_cap(cap)
    if required > cap:
        raise CapExceeded(required, cap)


class LPInstance(NamedTuple):
    """The support coupling LP, recorded by its contexts' positive cells.

    The full coupling LP has one nonnegative unknown per atom (an outcome
    assignment to every variable of the system), one equality per context
    cell, zero cells included, and total mass 1.  A zero cell forces every
    atom it covers to weight zero, so this support LP keeps only the atoms
    whose cell in every context is positive and only the positive cells'
    rows plus mass: the same optimum, and a solution of either is one of
    the other once its atoms are mapped.  cbd.oracle builds the full LP on
    its own, from the system's tables.

    variables: (context, content) pairs in canonical order; an atom assigns
    one outcome to each.  cells: each context's positive cells in the atoms'
    order, the product of its contents' outcomes with the contents sorted
    (so in variables order).  The atoms are the product of these lists, the
    first context's cell the most significant digit of an atom's index.
    rhs: one value per row, the cells' probabilities context by context,
    then 1 for the total-mass row.  objective: per atom, how many
    content-sharing pairs (System.pairs()) it assigns different outcomes.

    start: a feasible starting basis as (row index, atom index) pairs, the
    north-west corner over each context's positive cells, walked forward or,
    where the pair graph orients the context against its parent, backward
    (see _walk_directions), so that every binary pair whose content runs the
    same way in both walks starts at its maximal coupling.  Its rows are
    independent and imply every other row (each context's last cell walked
    is left out), and its basis matrix, in this order, is unit
    lower-triangular.

    layout: each row's cell as (stride, count, position), the form
    simplex.solve_min takes: count is the number of its context's cells in
    this LP and stride the product of the counts of the contexts after it,
    so the row's atoms are the j with (j // stride) % count == position.
    The mass row is (n_atoms, 1, 0).  No atom is listed: atom decodes one.

    bound: an exact lower bound on the optimum, from the system alone
    (_lower_bound), or None.  solve_lp trusts it: a bound above the optimum
    can end the solve at a basis that is not optimal, and verify_solution,
    which checks feasibility and the objective only, cannot tell.
    """

    variables: tuple[tuple[str, str], ...]
    cells: tuple[tuple[tuple[str, ...], ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[int, ...]
    start: tuple[tuple[int, int], ...]
    layout: tuple[tuple[int, int, int], ...]
    bound: Fraction | None

    @property
    def n_atoms(self) -> int:
        return self.layout[-1][0]

    def atom(self, index: int) -> tuple[str, ...]:
        """The atom at index, decoded from its mixed-radix digits."""
        out = ()
        for cells in reversed(self.cells):
            index, digit = divmod(index, len(cells))
            out = cells[digit] + out
        return out


class LPSolution(NamedTuple):
    """Solver result: exact optimum and the nonzero atom weights."""

    optimum: Fraction
    weights: dict[int, Fraction]


def build_coupling_lp(system: System, atom_cap: int | None = None) -> LPInstance:
    """Construct the support coupling LP of a validated system (see
    LPInstance).

    A context's rows follow its cell list, the order in which its cells vary
    over the atoms.  Only the cells, rows' cells and costs are built, with
    the north-west-corner start (see _north_west_corner), each context's
    cells walked in the direction _walk_directions gives it.  Raises
    CapExceeded when the atoms it would allocate, the product of the
    contexts' positive-cell counts, are more than the cap: after the cells
    are read, before the objective, the layout or the start is built.
    """
    variables = system.variables

    # Contexts share no variable, so an atom is one cell per context and the
    # atoms are the product of the contexts' cell lists.  variables sorts the
    # contents within each context, so each list is in sorted-content product
    # order, the order of its cells' outcome indices in the registry.  keys,
    # kept, probs: a context's positive cells in that order, read from its
    # table, as their outcome indices, outcomes and probabilities.  positive:
    # each context's cells as (list position, probability, row index).  place:
    # each variable's context and its index in that context's cells.
    # indices: each context's keys.
    cells: list[tuple[tuple[str, ...], ...]] = []
    rhs: list[Fraction] = []
    positive: list[list[tuple[int, Fraction, int]]] = []
    place: dict[tuple[str, str], tuple[int, int]] = {}
    indices: list[tuple[tuple[int, ...], ...]] = []
    for i, blk in enumerate(system.blocks):
        contents = sorted(blk.contents)
        domains = [system.outcomes[q] for q in contents]
        items = blk.table.items()
        if contents != list(blk.contents):
            where = [blk.contents.index(q) for q in contents]
            items = [(tuple([cell[k] for k in where]), p) for cell, p in items]
        keys, kept, probs = zip(*sorted(
            [(tuple(map(tuple.index, domains, cell)), cell, p) for cell, p in items]
        ))
        positive.append([(k, p, len(rhs) + k) for k, p in enumerate(probs)])
        cells.append(kept)
        rhs += probs
        place.update(((blk.context, q), (i, k)) for k, q in enumerate(contents))
        indices.append(keys)
    rhs.append(Fraction(1))
    n = math.prod(map(len, cells))
    check_atom_cap(n, atom_cap)

    # One row per cell, in list order: the atoms whose cell in a context sits
    # at list position d are the j with (j // stride) % count == d.
    layout: list[tuple[int, int, int]] = []
    strides = []
    stride = n
    for kept in cells:
        stride //= len(kept)
        strides.append(stride)
        layout += [(stride, len(kept), d) for d in range(len(kept))]
    layout.append((n, 1, 0))

    # The objective counts, per atom, the pairs whose two outcomes differ.  A
    # pair's mismatch depends only on its two contexts' cells a (context i)
    # and b (context j > i): over the atoms it is the a-by-b table, each
    # entry repeated for the run of b's stride, each row tiled over the run
    # of a's stride, and the whole tiled over the contexts before i.
    objective = [0] * n
    pairs = system.pairs()
    for q, ca, cb in pairs:
        (i, k), (j, m) = sorted((place[(ca, q)], place[(cb, q)]))
        split = []
        for a in cells[i]:
            row = []
            for b in cells[j]:
                row += [a[k] != b[m]] * strides[j]
            split += row * (strides[i] // len(row))
        objective = list(map(operator.add, objective, split * (n // len(split))))

    # Each context's positive cells are walked forward unless the pair graph
    # reverses them.
    ways = _walk_directions(pairs, place, indices)
    walks = [spots[::-1] if way < 0 else spots for spots, way in zip(positive, ways)]
    return LPInstance(
        variables=variables,
        cells=tuple(cells),
        rhs=tuple(rhs),
        objective=tuple(objective),
        start=_north_west_corner(walks, strides, len(rhs) - 1),
        layout=tuple(layout),
        bound=_lower_bound(system),
    )


def _lower_bound(system: System) -> Fraction:
    """An exact lower bound on the LP's optimum from the system alone:
    delta_sum, which no coupling beats pair by pair, raised for a '+1'/'-1'
    ring to its optimum (Kujala & Dzhafarov 2016; cyclic.ring_optimum)."""
    optimum = ring_optimum(system)
    return isolated_deltas(system).total if optimum is None else optimum


def _direction(indices: Sequence[int]) -> int:
    """A variable's direction over its context's positive cells in list
    order, given its outcome index in each: +1 if the index never falls and
    changes, -1 if it never rises and changes, 0 otherwise."""
    first, last = indices[0], indices[-1]
    if first == last:
        return 0
    if first < last:
        return 0 if any(map(operator.lt, indices[1:], indices)) else 1
    return 0 if any(map(operator.gt, indices[1:], indices)) else -1


def _walk_directions(
    pairs: Sequence[tuple[str, str, str]],
    place: dict[tuple[str, str], tuple[int, int]],
    indices: Sequence[Sequence[tuple[int, ...]]],
) -> list[int]:
    """Each context's walk direction for the north-west corner: 1 forward
    over its positive cells, -1 backward.

    indices[i] lists context i's positive cells in list order, each as its
    outcome indices in sorted-content order; place gives each variable's
    context and content position.  A breadth-first spanning forest of the
    pair graph (contexts in block order, an edge per System.pairs() entry in
    pairs, taken in that order) reverses a context exactly when the content
    joining it to its parent runs monotonically in opposite directions (see
    _direction) in the two walks.  The north-west corner couples every two
    contexts comonotonically along their walks, so each binary pair whose
    content runs the same way in both gets its maximal coupling.
    """
    directions = [[_direction(column) for column in zip(*keys)] for keys in indices]
    links: list[list[tuple[int, int]]] = [[] for _ in indices]
    for q, ca, cb in pairs:
        (i, k), (j, m) = place[(ca, q)], place[(cb, q)]
        same = directions[i][k] * directions[j][m]  # 1 same way, -1 opposite, 0 not monotone
        links[i].append((j, same))
        links[j].append((i, same))
    ways = [0] * len(indices)  # 0 until reached
    for root in range(len(indices)):
        if ways[root]:
            continue
        ways[root] = 1
        queue = [root]
        for i in queue:  # the loop reaches what it appends: breadth first
            for j, same in links[i]:
                if not ways[j]:
                    # reversed when the content runs opposite to i's walk
                    ways[j] = ways[i] * same or 1
                    queue.append(j)
    return ways


def _north_west_corner(
    walks: Sequence[Sequence[tuple[int, Fraction, int]]],
    strides: Sequence[int],
    mass_row: int,
) -> tuple[tuple[int, int], ...]:
    """A basic feasible solution of the coupling LP by the north-west-corner
    rule of the transportation problem (Dantzig, Linear Programming and
    Extensions, 1963), as (row index, atom index) pairs.

    walks[i] lists context i's positive cells as (list position, probability,
    row index) in the order the rule walks them: atom-list order, or its
    reverse for a context that _walk_directions reverses.  An atom's index is
    the sum of its cells' list positions times strides.  The rule starts at
    the atom of every context's first cell walked and moves one context at a
    time to its next cell, at the cumulative mass where its current cell is
    used up: the moves are those masses merged in increasing order, ties to
    the lower context, so tied contexts move over zero-weight atoms.  Each
    move pairs the used-up cell's row with the atom it leaves, and the last
    atom takes the mass row.  That is 1 + sum(c_i - 1) atoms, one row per
    positive cell except the last cell each context walks, which the mass
    row and the context's other cells imply.  A row's cell is in no later
    atom, so the basis matrix, in this order, is unit lower-triangular.
    """
    _, nums = to_form(p for spots in walks for _, p, _ in spots)
    moves = []
    k = 0
    for i, spots in enumerate(walks):
        used = 0
        for j in range(len(spots) - 1):
            used += nums[k + j]
            moves.append((used, i, j))
        k += len(spots)
    moves.sort()
    atom = sum(spots[0][0] * s for spots, s in zip(walks, strides))
    start = []
    for _, i, j in moves:
        here, after = walks[i][j], walks[i][j + 1]
        start.append((here[2], atom))
        atom += (after[0] - here[0]) * strides[i]
    start.append((mass_row, atom))
    return tuple(start)


def solve_lp(lp: LPInstance) -> LPSolution:
    """Solve a support LP (as build_coupling_lp builds it) exactly.

    The simplex takes only the start's rows, as the start implies the others,
    each as its cell in lp.layout, and runs phase 2 from the start's basis.
    An LP with a zero-rhs row is refused: the rows left out could be the
    ones that force zero-cell atoms to weight zero, and those atoms could
    enter the basis.  The solve stops once its objective reaches lp.bound,
    or runs phase 2 to the end when that is None.  It trusts the bound: one
    above the optimum can end the solve at a basis that is not optimal, and
    verify_solution cannot tell.  The solution is solve_min's (optimum,
    weights) as it is: the weights are the nonzero values of the basic
    feasible solution it ends at, by atom index in ascending order.
    """
    if not lp.start:
        raise ValueError("solve_lp needs an LP with a start basis, got none")
    zero = next((r for r, b in enumerate(lp.rhs) if not b), None)
    if zero is not None:
        raise ValueError(f"solve_lp takes a support LP, but row {zero} has rhs 0")
    optimum, weights = simplex.solve_min(
        lp.objective,
        [lp.layout[r] for r, _ in lp.start],
        [lp.rhs[r] for r, _ in lp.start],
        [c for _, c in lp.start],
        lp.bound,
    )
    return LPSolution(optimum=optimum, weights=weights)


def verify_solution(lp: LPInstance, sol: LPSolution) -> bool:
    """Exact recheck of a solution against the instance: nonnegative
    weights, every equality met, and the objective equal to the optimum.
    Each weight is summed into the rows whose cell holds its atom, read off
    the atom's digits in lp.layout."""
    if any(not 0 <= c < lp.n_atoms or v < 0 for c, v in sol.weights.items()):
        return False
    totals = [ZERO] * len(lp.layout)
    for c, v in sol.weights.items():
        for r, (stride, count, position) in enumerate(lp.layout):
            if c // stride % count == position:
                totals[r] += v
    if totals != list(lp.rhs):
        return False
    value = sum(
        lp.objective[c] * v for c, v in sol.weights.items()
    )
    return value == sol.optimum


class CouplingWitness(NamedTuple):
    """An optimal coupling: nonzero atom weights in canonical variable order."""

    variables: tuple[tuple[str, str], ...]
    weights: tuple[tuple[tuple[str, ...], Fraction], ...]


def system_delta(
    system: System, atom_cap: int | None = None
) -> tuple[Fraction, CouplingWitness]:
    """Least total same-content mismatch achievable by any system coupling.

    Returns the exact minimum and one witness coupling attaining it.
    """
    lp = build_coupling_lp(system, atom_cap=atom_cap)
    try:
        sol = solve_lp(lp)
    except simplex.SimplexError as exc:
        raise InternalError(f"coupling LP solve failed: {exc}") from exc
    witness = CouplingWitness(
        variables=lp.variables,
        weights=tuple((lp.atom(i), w) for i, w in sol.weights.items()),
    )
    return sol.optimum, witness


def delta_pairs(system: System) -> list[PairDelta]:
    """Isolated delta for every content-sharing pair.

    Returns one PairDelta per pair in System.pairs() order, the pair
    enumeration the LP objective uses, so summing gives the in-isolation
    baseline.  Each delta is the total variation distance of the two
    marginals, computed once per system from their integer forms in the
    system's index; the records are the index's own (systems.isolated_deltas,
    which holds the sum too).
    """
    return list(isolated_deltas(system).pairs)
