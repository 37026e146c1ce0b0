"""Exact two-phase simplex over the rationals, on an integer tableau.

Minimizes a linear objective subject to equality constraints and
nonnegativity.  The optimum is the true rational optimum, not an
approximation, yet no pivot touches a Fraction: a constraint row or the
cost vector that holds only ints passes through as it is, any other is
scaled to integers over the lcm of its denominators by systems.to_form, as
is the right-hand-side column, and the tableau is kept integral with one
common positive denominator d (the integer-preserving pivots of Edmonds and
Bareiss, Math. Comp. 22, 1968).
A tableau entry T[i][j] stands for the rational T[i][j] / d.  Pivoting on
(r, s) with p = T[r][s] leaves row r as it is and turns every other row into
(p*a - f*b) // d, an exact division, after which d = p; with p = d = 1 that
is the row subtraction a - f*b.

The starting basis comes from one of two places.  Without a start, phase 1
minimizes the sum of one artificial variable per row; a positive minimum
means the LP is infeasible, and SimplexError is raised.  Artificials still
basic at zero afterwards are driven out or, on a redundant row, dropped with
their row.  With a start (one column per row, so the rows must be
independent), its columns are pivoted in row by row, in order; it must be
nonsingular in that order and its basic solution nonnegative, or
SimplexError is raised.  Phase 1 and the drive-out are then skipped, as
they are for an LP with no rows.  The coupling LP supplies such a start
(its north-west-corner basis, see coupling.build_coupling_lp), on whose unit
lower-triangular basis every install pivot is 1: on its 0/1 int rows each
install pivot updates the other rows by plain subtraction.  Phase 2 is the
same either way, and the solution is read off its final basis: the optimum
and the nonzero basic values, by column.

Entering takes the most negative reduced cost (Dantzig's rule).  After
DEGENERATE_RUN consecutive degenerate pivots it switches to Bland's rule
(smallest eligible index enters) until the next nondegenerate pivot, so
cycling is ruled out.  Among tied minimum ratios, the row whose basic
variable has the smallest index leaves.
"""

from __future__ import annotations

from fractions import Fraction

from .systems import to_form

# Consecutive degenerate pivots after which entering falls back to Bland's
# rule until the next nondegenerate pivot.
DEGENERATE_RUN = 8

# Hard safety stop; the Bland fallback guarantees termination long before
# this on any instance.
MAX_PIVOTS = 1_000_000


class SimplexError(RuntimeError):
    """Failure to solve: an infeasible LP, an unbounded objective, a
    pivot-limit overrun, or a start basis that is singular or infeasible."""


class _Tableau:
    """Integer tableau: constraint rows, an optional z-row (kept last in
    rows while present), the basis and the common denominator d."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis
        self.d = 1
        self.pivots = 0

    def pivot(self, r, s):
        """Make column s basic in row r, keeping every entry an integer."""
        rows = self.rows
        prow = rows[r]
        p = prow[s]
        if p < 0:
            # only when driving out a leftover artificial, whose rhs is 0, or
            # when installing a start basis, whose rhs is checked afterwards
            prow = rows[r] = [-a for a in prow]
            p = -p
        d = self.d
        # with p = d = 1 (every pivot installing the coupling LP's start) the
        # update is a plain row subtraction
        unit = p == 1 and d == 1
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[s]
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

    def iterate(self, n_enter):
        """Pivot until the z-row (rows[-1]) has no negative reduced cost
        among columns 0..n_enter-1."""
        rows = self.rows
        basis = self.basis
        m = len(rows) - 1
        degenerate = 0
        while True:
            zrow = rows[-1]
            if degenerate < DEGENERATE_RUN:
                least = min(zrow[:n_enter], default=0)
                enter = zrow.index(least) if least < 0 else -1
            else:
                enter = next((j for j in range(n_enter) if zrow[j] < 0), -1)
            if enter < 0:
                return
            # ratio test: T[i][-1] / T[i][enter] over rows with a positive
            # entry, compared by cross-multiplication
            leave = -1
            for i in range(m):
                coeff = rows[i][enter]
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
            self.pivot(leave, enter)


def _integer_form(values):
    """to_form(values), with an int sequence passed through as (1, values)."""
    if set(map(type, values)) <= {int}:
        return 1, values
    return to_form(values)


def _phase_one(tab, n):
    """Pivot tab, whose basis is all artificial, to a feasible basis of the
    n original columns; raise SimplexError when there is none."""
    # Phase 1: minimize the sum of one artificial variable per row.  The
    # artificial columns are not stored: they never re-enter (forcing them
    # to stay at zero once nonbasic cannot hide feasibility, since any
    # all-original feasible point has every artificial at zero already), and
    # no other column's update reads them.
    tab.rows.append([-sum(col) for col in zip(*tab.rows)])
    tab.iterate(n)
    if tab.rows.pop()[-1] != 0:
        raise SimplexError("infeasible: no point meets every row")

    # Drive leftover artificials out of the basis; rows that cannot pivot on
    # any original column are redundant and get dropped.
    drop = []
    for i in range(len(tab.rows)):
        if tab.basis[i] >= n:
            col = next((j for j in range(n) if tab.rows[i][j] != 0), -1)
            if col < 0:
                drop.append(i)
            else:
                tab.pivot(i, col)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]


def solve_min(costs, rows, rhs, start=None):
    """Minimize costs . x subject to rows . x == rhs, x >= 0.

    costs: sequence of n exact numbers (ints or Fractions).
    rows:  m sequences of n exact numbers.  Only a sequence holding a
           non-int is scaled to integers; an int one is read as it is.
    rhs:   m exact numbers.
    start: optional starting basis, m column indices: start[i] is made basic
           in row i.  Without it, phase 1 finds a feasible basis.

    Returns (optimum, weights): the exact optimum as a Fraction and one
    optimal basic feasible solution as {column: Fraction}, its nonzero basic
    values in ascending column order.  Raises SimplexError on an infeasible
    LP (found by phase 1), on an unbounded objective (impossible when the
    feasible set is bounded, as for every instance built by this package)
    and on a start that is not m columns, hits a zero pivot, or gives a
    negative basic value.
    """
    m = len(rows)
    n = len(costs)
    if start is not None and len(start) != m:
        raise SimplexError(f"start basis has {len(start)} columns for {m} rows")

    # Each row (with its rhs) is scaled by the least common denominator of
    # its coefficients, and the rhs column then by the least common
    # denominator of the rhs values: solving for x * rhs_scale instead of x
    # keeps the coefficient block, and so every minor the pivots produce,
    # as small as the coefficients themselves.
    table = []
    scaled_rhs = []
    for row, b in zip(rows, rhs):
        row_scale, scaled = _integer_form(row)
        if row_scale != 1:
            b *= row_scale
        if b < 0:
            scaled = [-a for a in scaled]
            b = -b
        table.append(list(scaled))
        scaled_rhs.append(b)
    rhs_scale, int_rhs = to_form(scaled_rhs)
    for row, b in zip(table, int_rhs):
        row.append(b)

    # Basis index n + i stands for row i's artificial, until a pivot
    # replaces it.
    tab = _Tableau(table, list(range(n, n + m)))
    if start is not None:
        for i, j in enumerate(start):
            if not 0 <= j < n or tab.rows[i][j] == 0:
                raise SimplexError(f"start basis is singular at row {i}")
            tab.pivot(i, j)
        if any(row[-1] < 0 for row in tab.rows):
            raise SimplexError("start basis is infeasible")
    elif m:  # with no rows, the empty basis is already feasible
        _phase_one(tab, n)

    # Phase 2: the real objective, scaled to integers, over the feasible
    # basis found above.  Its z-row carries the same denominator d.
    cost_scale, icosts = _integer_form(costs)
    zrow = [tab.d * c for c in icosts] + [0]
    for i, j in enumerate(tab.basis):
        cb = icosts[j]
        if cb:
            zrow = [z - cb * a for z, a in zip(zrow, tab.rows[i])]
    tab.rows.append(zrow)
    tab.iterate(n)

    den = tab.d * rhs_scale
    # zip stops at the last basis entry, before the z-row
    values = sorted((j, row[-1]) for j, row in zip(tab.basis, tab.rows))
    weights = {j: Fraction(v, den) for j, v in values if v}
    optimum = Fraction(-tab.rows[-1][-1], den * cost_scale)
    return optimum, weights
