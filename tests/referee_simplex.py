"""The dense integer tableau and the two-phase simplex: the tests' referees
for cbd.simplex.solve_min.

solve_min keeps only E = d*B^-1, the rhs column and the duals, and takes its
rows as cells (stride, count, position).  The tableau here is the one it
stands for: every row over every column, pivoted by the same
integer-preserving update (Edmonds and Bareiss), with the same Dantzig
entering, Bland fallback and ratio test, and the same stop at a lower
bound, so from the same start and bound on the same LP (its rows spelled
out by helpers.lp_views) its pivots, optimum and basic solution are
solve_min's.  _Tableau, _tableau, _install and _phase_two
are the dense solver that solve_min replaced, as it was.

The two-phase solve_min below takes any exact numbers, with or without a
start.  It scales each row and the costs to integers, negates a row whose
rhs is negative and, without a start, finds a feasible basis by phase 1.
"""

from __future__ import annotations

from fractions import Fraction

from cbd.simplex import DEGENERATE_RUN, MAX_PIVOTS, SimplexError, _check_ints
from cbd.systems import to_form


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
            # only when installing a start basis, whose rhs is checked
            # afterwards, or when the referee drives out an artificial
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

    def iterate(self, n_enter, bound=None, scale=1):
        """Pivot until the z-row (rows[-1]) has no negative reduced cost
        among columns 0..n_enter-1 or, if bound is not None, until the
        objective -z / (d*scale), z the z-row's last entry, equals bound;
        an objective below bound raises.  The bound is compared before every
        pricing pass."""
        rows = self.rows
        basis = self.basis
        m = len(rows) - 1
        degenerate = 0
        while True:
            zrow = rows[-1]
            if bound is not None:
                objective = Fraction(-zrow[-1], self.d * scale)
                if objective == bound:
                    return
                if objective < bound:
                    raise SimplexError(
                        f"the objective {objective} fell below its lower bound {bound}"
                    )
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


def _tableau(rows, rhs, n):
    """The tableau of int rows over n columns with a nonnegative rhs, and
    the scale of its rhs column: solving for x * rhs_scale instead of x keeps
    every minor the pivots produce as small as the coefficients themselves.
    Basis index n + i stands for row i's artificial, until a pivot replaces
    it."""
    for row in rows:
        _check_ints(row, "a row")
        if len(row) != n:
            raise SimplexError(f"a row has {len(row)} entries for {n} columns")
    if any(b < 0 for b in rhs):
        raise SimplexError("the rhs must be nonnegative")
    rhs_scale, int_rhs = to_form(rhs)
    table = [[*row, b] for row, b in zip(rows, int_rhs)]
    return _Tableau(table, list(range(n, n + len(rows)))), rhs_scale


def _install(tab, start, n):
    """Pivot start[i] in as row i's basic column, row by row."""
    m = len(tab.rows)
    if len(start) != m:
        raise SimplexError(f"start basis has {len(start)} columns for {m} rows")
    for i, j in enumerate(start):
        if not 0 <= j < n or tab.rows[i][j] == 0:
            raise SimplexError(f"start basis is singular at row {i}")
        tab.pivot(i, j)
    if any(row[-1] < 0 for row in tab.rows):
        raise SimplexError("start basis is infeasible")


def _phase_two(tab, costs, rhs_scale, bound=None):
    """Minimize the int costs from tab's feasible basis, stopping at the
    lower bound if it is not None; return the optimum and the nonzero basic
    values, by column, in ascending order."""
    # the z-row carries the tableau's denominator d
    zrow = [tab.d * c for c in costs] + [0]
    for i, j in enumerate(tab.basis):
        cb = costs[j]
        if cb:
            zrow = [z - cb * a for z, a in zip(zrow, tab.rows[i])]
    tab.rows.append(zrow)
    tab.iterate(len(costs), bound, rhs_scale)

    den = tab.d * rhs_scale
    # zip stops at the last basis entry, before the z-row
    values = sorted((j, row[-1]) for j, row in zip(tab.basis, tab.rows))
    weights = {j: Fraction(v, den) for j, v in values if v}
    return Fraction(-tab.rows[-1][-1], den), weights


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


def solve_min(costs, rows, rhs, start=None, bound=None):
    """solve_min's (optimum, weights) for exact costs, rows and rhs of any
    sign; without a start, phase 1 finds a feasible basis.  With a bound,
    phase 2 stops once the objective equals it."""
    n = len(costs)
    # Each row (with its rhs) is scaled by the least common denominator of
    # its coefficients; solve_min then scales the rhs column as a whole.
    int_rows = []
    scaled_rhs = []
    for row, b in zip(rows, rhs):
        row_scale, scaled = _integer_form(row)
        b *= row_scale
        if b < 0:
            scaled = [-a for a in scaled]
            b = -b
        int_rows.append(scaled)
        scaled_rhs.append(b)
    tab, rhs_scale = _tableau(int_rows, scaled_rhs, n)
    if start is not None:
        _install(tab, start, n)
    elif rows:  # with no rows, the empty basis is already feasible
        _phase_one(tab, n)
    cost_scale, int_costs = _integer_form(costs)
    if bound is not None:
        bound *= cost_scale  # the bound on the objective of int_costs
    optimum, weights = _phase_two(tab, int_costs, rhs_scale, bound)
    return optimum / cost_scale, weights
