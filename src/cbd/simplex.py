"""Exact simplex over the rationals, on an integer tableau, from a given start.

Minimizes a linear objective subject to equality constraints and
nonnegativity.  The optimum is the true rational optimum, not an
approximation, yet no pivot touches a Fraction: the constraint rows and the
costs must be ints, the right-hand-side column is scaled to integers over the
lcm of its denominators by systems.to_form, and the tableau is kept integral
with one common positive denominator d (the integer-preserving pivots of
Edmonds and Bareiss, Math. Comp. 22, 1968).
A tableau entry T[i][j] stands for the rational T[i][j] / d.  Pivoting on
(r, s) with p = T[r][s] leaves row r as it is and turns every other row into
(p*a - f*b) // d, an exact division, after which d = p; with p = d = 1 that
is the row subtraction a - f*b.

There is one path: the caller's start basis, one column per row (so the rows
must be independent), is pivoted in row by row, in order; it must be
nonsingular in that order and its basic solution nonnegative.  The coupling
LP's north-west-corner start (coupling.build_coupling_lp) has a unit
lower-triangular basis, so every install pivot is a plain row subtraction.
Phase 2 runs from that basis; the solution is read off its final basis.  The
tests' two-phase referee (tests/referee_simplex.py) adds phase 1 to it.

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
    """Failure to solve: a row or cost that is not an int, a row whose length
    is not the number of costs, a negative rhs, a start basis that is
    singular or infeasible, an unbounded objective, or a pivot-limit
    overrun."""


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


def _check_ints(values, what):
    if not set(map(type, values)) <= {int}:
        raise SimplexError(f"{what} must hold ints only")


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


def _phase_two(tab, costs, rhs_scale):
    """Minimize the int costs from tab's feasible basis; return the optimum
    and the nonzero basic values, by column, in ascending order."""
    # the z-row carries the tableau's denominator d
    zrow = [tab.d * c for c in costs] + [0]
    for i, j in enumerate(tab.basis):
        cb = costs[j]
        if cb:
            zrow = [z - cb * a for z, a in zip(zrow, tab.rows[i])]
    tab.rows.append(zrow)
    tab.iterate(len(costs))

    den = tab.d * rhs_scale
    # zip stops at the last basis entry, before the z-row
    values = sorted((j, row[-1]) for j, row in zip(tab.basis, tab.rows))
    weights = {j: Fraction(v, den) for j, v in values if v}
    return Fraction(-tab.rows[-1][-1], den), weights


def solve_min(costs, rows, rhs, start):
    """Minimize costs . x subject to rows . x == rhs, x >= 0.

    costs: n ints.
    rows:  m sequences of n ints.
    rhs:   m nonnegative exact numbers (ints or Fractions).
    start: the starting basis, m column indices: start[i] is made basic in
           row i.

    Returns (optimum, weights): the exact optimum as a Fraction and one
    optimal basic feasible solution as {column: Fraction}, its nonzero basic
    values in ascending column order.  Raises SimplexError on a row or cost
    that is not an int, on a row of other than n entries, on a negative rhs,
    on a start that is not m columns, hits a zero pivot, or gives a negative
    basic value, and on an unbounded objective (impossible when the feasible
    set is bounded, as for every instance built by this package).
    """
    _check_ints(costs, "the costs")
    tab, rhs_scale = _tableau(rows, rhs, len(costs))
    _install(tab, start, len(costs))
    return _phase_two(tab, costs, rhs_scale)
