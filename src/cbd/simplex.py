"""Exact revised simplex over the rationals, on integers, from a given start.

Minimizes costs . x subject to rows . x == rhs and x >= 0.  Each row is a
cell (stride, count, position): it sums the columns j with
(j // stride) % count == position.  The coupling LP's rows are all cells
(coupling.LPInstance.layout): an atom's index is a mixed-radix number with
one digit per context, and the mass row is (n, 1, 0).

The optimum is exact, yet no pivot touches a Fraction: the costs are ints
and systems.to_form scales the rhs to integers.  No m x n tableau is kept.
For the basis B the solver holds E = d*B^-1 (m x m) with the rhs column
beta = E.b, and the z-row [-pi | -c_B.beta] with the duals pi = c_B.E, all
integers over one denominator d > 0.  Together they stand for the dense
tableau E.A with z-row d*c - pi.A.  They start at the artificial basis,
[I | b] and a zero z-row (the artificial columns cost nothing), and every
pivot from the first updates all m + 1 rows alike.  A pivot on (r, s) with
p = (E.A_s)[r] applies the integer-preserving update of Edmonds and Bareiss
(Math. Comp. 22, 1968) to these rows alone, as in the revised simplex of
Dantzig and Orchard-Hays (1954): row r stays, every other row turns into
(p*a - f*b) // d, an exact division, and d becomes p; with p = d = 1 that
is the row subtraction a - f*b.  The pivot rules read exactly the integers
the dense tableau would hold, so they make its pivots
(tests/referee_simplex.py keeps that tableau as the referee).

Each iteration prices every column in one prefix-product pass over the
digits, in product order over the contexts' cells, and builds the entering
column E.A_s from the rows whose cell holds s.

There is one path: the caller's start basis, one column per row (so the rows
must be independent), is pivoted in row by row, in order; it must be
nonsingular in that order and its basic solution nonnegative.  The coupling
LP's north-west-corner start has a unit lower-triangular basis, so every
install pivot is a plain row subtraction.  The iterations run on from that
basis, on the same rows.

The caller may pass an exact lower bound on the optimum.  Before every
pricing pass, right after install and after each pivot, the objective
-c_B.beta / (d*scale) is compared with it in integers: if they are equal,
the current basis is optimal and its solution is returned at once; if the
objective is below the bound, the bound was wrong and SimplexError is
raised.  The solver knows nothing of where the bound comes from.  Stopping
cannot change the solution returned: once the objective equals the
optimum, no column can enter with a negative reduced cost and a positive
step, so every further pivot would be degenerate, entering at value 0 in
place of a basic value 0, and would keep every nonzero basic value (the
witness) as it is (Dantzig, Linear Programming and Extensions, 1963).

Entering takes the most negative reduced cost (Dantzig's rule).  After
DEGENERATE_RUN consecutive degenerate pivots it switches to Bland's rule
(smallest eligible index enters) until the next nondegenerate pivot, so
cycling is ruled out.  Among tied minimum ratios, the row whose basic
variable has the smallest index leaves.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .systems import to_form

# Consecutive degenerate pivots after which entering falls back to Bland's
# rule until the next nondegenerate pivot.
DEGENERATE_RUN = 8

# Hard safety stop; the Bland fallback guarantees termination long before
# this on any instance.
MAX_PIVOTS = 1_000_000


class SimplexError(RuntimeError):
    """Failure to solve: a cost or row that is not an int, a row that is not
    a cell of n columns or covers them all but is not (n, 1, 0), rows whose
    strides do not nest, a negative rhs, a
    start basis that is singular or infeasible, an unbounded objective, or a
    pivot-limit overrun."""


def _check_ints(values, what):
    if not set(map(type, values)) <= {int}:
        raise SimplexError(f"{what} must hold ints only")


def _radix(rows, n):
    """The digits of the columns' mixed radix, most significant first, as
    (stride, count, cells): cells[position] lists the rows of that cell, and
    a digit that no row reads has only empty cells.  The rows of one stride
    must share their count, and each stride * count must divide the stride
    above it (n above the first)."""
    by_stride = {}
    for k, row in enumerate(rows):
        _check_ints(row, "a row")
        if len(row) != 3:
            raise SimplexError(f"a row must be (stride, count, position), got {row!r}")
        stride, count, position = row
        if not (stride > 0 and 0 <= position < count and n % (stride * count) == 0):
            raise SimplexError(f"the row {tuple(row)} is no cell of {n} columns")
        if count == 1 and stride != n:
            # the one cell that covers every column is the mass row; any
            # other spelling of it, such as the dense row [1, 1, 0] read as a
            # cell, is refused
            raise SimplexError(
                f"the row {tuple(row)} covers every column: write it ({n}, 1, 0)"
            )
        cells = by_stride.get(stride)
        if cells is None:
            cells = by_stride[stride] = [[] for _ in range(count)]
        elif len(cells) != count:
            raise SimplexError(
                f"rows of stride {stride} have counts {len(cells)} and {count}"
            )
        cells[position].append(k)
    digits = []
    size = n
    for stride in sorted(by_stride, reverse=True):
        cells = by_stride[stride]
        gap, rest = divmod(size, stride * len(cells))
        if rest:
            raise SimplexError(f"rows of stride {stride} do not nest in stride {size}")
        if gap > 1:
            digits.append((stride * len(cells), gap, [()] * gap))
        digits.append((stride, len(cells), cells))
        size = stride
    if size > 1:
        digits.append((1, size, [()] * size))
    return digits


class _Revised:
    """[E | beta] by rows and then, from the artificial start on, the z-row
    [-pi | -c_B.beta]; the basis, the common denominator d and the radix."""

    def __init__(self, digits, rhs, n):
        m = len(rhs)
        self.rows = [[int(i == k) for k in range(m)] + [b] for i, b in enumerate(rhs)]
        self.rows.append([0] * (m + 1))
        self.basis = list(range(n, n + m))
        self.digits = digits
        self.d = 1
        self.pivots = 0

    def column(self, s, costs):
        """E.A_s followed by s's reduced cost d*c_s - pi.A_s: the sums of E's
        columns and of -pi for the rows whose cell column s is in."""
        cover = [
            k
            for stride, count, cells in self.digits
            for k in cells[s // stride % count]
        ]
        col = [sum(map(row.__getitem__, cover)) for row in self.rows]
        col[-1] += self.d * costs[s]
        return col

    def prices(self, costs):
        """The z-row over every column: d*c_j plus -pi summed over the rows
        whose cell column j is in, one digit at a time."""
        w = self.rows[-1]
        u = [0]
        for _, _, cells in self.digits:
            v = [sum(map(w.__getitem__, ks)) for ks in cells]
            u = list(itertools.starmap(operator.add, itertools.product(u, v)))
        d = self.d
        return [d * c + a for c, a in zip(costs, u)]

    def pivot(self, r, s, col):
        """Make column s basic in row r, keeping every entry an integer; col
        is E.A_s followed by s's reduced cost, as column returns it."""
        rows = self.rows
        prow = rows[r]
        p = col[r]
        if p < 0:
            # only when installing a start basis, whose rhs is checked
            # afterwards
            prow = rows[r] = [-a for a in prow]
            p = -p
        d = self.d
        # with p = d = 1 (every pivot installing the coupling LP's start) the
        # update is a plain row subtraction
        unit = p == 1 and d == 1
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = col[i]
            if f == 0:
                if p != d:
                    rows[i] = [p * a // d for a in row]
            elif unit:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
            else:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        self.d = p
        self.basis[r] = s
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")

    def install(self, start, costs):
        """Pivot start[i] in as row i's basic column, row by row."""
        m = len(self.basis)
        if len(start) != m:
            raise SimplexError(f"start basis has {len(start)} columns for {m} rows")
        for i, j in enumerate(start):
            col = self.column(j, costs) if 0 <= j < len(costs) else None
            if col is None or col[i] == 0:
                raise SimplexError(f"start basis is singular at row {i}")
            self.pivot(i, j, col)
        if any(row[-1] < 0 for row in self.rows[:m]):
            raise SimplexError("start basis is infeasible")

    def iterate(self, costs, bound, scale):
        """Pivot until no column has a negative reduced cost or, if bound is
        not None, until the objective -z / (d*scale), z the z-row's last
        entry, equals bound.  The bound is compared before every pricing
        pass, in integers; an objective below it raises."""
        rows = self.rows
        basis = self.basis
        m = len(basis)
        degenerate = 0
        if bound is not None:
            target, over = bound.numerator * scale, bound.denominator
        while True:
            if bound is not None:
                # (objective - bound) * d * scale * den
                gap = -rows[-1][-1] * over - target * self.d
                if gap == 0:
                    return
                if gap < 0:
                    objective = Fraction(-rows[-1][-1], self.d * scale)
                    raise SimplexError(
                        f"the objective {objective} fell below its lower bound {bound}"
                    )
            z = self.prices(costs)
            if degenerate < DEGENERATE_RUN:
                least = min(z, default=0)
                enter = z.index(least) if least < 0 else -1
            else:
                enter = next((j for j, zj in enumerate(z) if zj < 0), -1)
            if enter < 0:
                return
            col = self.column(enter, costs)
            # ratio test: beta[i] / col[i] over rows with a positive entry,
            # compared by cross-multiplication
            leave = -1
            for i in range(m):
                coeff = col[i]
                if coeff > 0:
                    if leave < 0:
                        leave, num, den = i, rows[i][-1], coeff
                        continue
                    lhs = rows[i][-1] * den
                    rhs = num * coeff
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, rows[i][-1], coeff
            if leave < 0:
                raise SimplexError("unbounded objective")
            degenerate = degenerate + 1 if num == 0 else 0
            self.pivot(leave, enter, col)


def solve_min(costs, rows, rhs, start, bound):
    """Minimize costs . x subject to rows . x == rhs, x >= 0.

    costs: n ints.
    rows:  m cells (stride, count, position) of ints: row i sums the
           columns j with (j // stride) % count == position.
    rhs:   m nonnegative exact numbers (ints or Fractions).
    start: the starting basis, m column indices: start[i] is made basic in
           row i.
    bound: an exact lower bound on the optimum (an int or a Fraction), or
           None.  The solve returns as soon as the objective equals it.

    Returns (optimum, weights): the exact optimum as a Fraction and one
    optimal basic feasible solution as {column: Fraction}, its nonzero basic
    values in ascending column order.  Raises SimplexError on a cost or row
    that is not an int, on a row that is not a cell of n columns, a row
    other than (n, 1, 0) that covers every column, rows whose strides do not
    nest, on a negative rhs, on a start that is not m
    columns, hits a zero pivot, or gives a negative basic value, on a bound
    that is not None, an int or a Fraction, on an objective below the bound,
    and on an unbounded objective (impossible when the feasible set is
    bounded, as for every instance built by this package).
    """
    _check_ints(costs, "the costs")
    n = len(costs)
    digits = _radix(rows, n)
    if len(rhs) != len(rows):
        raise SimplexError(f"the rhs has {len(rhs)} values for {len(rows)} rows")
    if any(b < 0 for b in rhs):
        raise SimplexError("the rhs must be nonnegative")
    if bound is not None and type(bound) not in (int, Fraction):
        raise SimplexError(f"the bound must be an int, a Fraction or None, got {bound!r}")
    rhs_scale, int_rhs = to_form(rhs)
    tab = _Revised(digits, int_rhs, n)
    tab.install(start, costs)
    tab.iterate(costs, bound, rhs_scale)
    den = tab.d * rhs_scale
    # zip stops at the last basis entry, before the z-row
    values = sorted((j, row[-1]) for j, row in zip(tab.basis, tab.rows))
    weights = {j: Fraction(v, den) for j, v in values if v}
    return Fraction(-tab.rows[-1][-1], den), weights
