"""Two-phase simplex: the tests' referee for cbd.simplex.solve_min.

solve_min takes int rows and costs, a nonnegative rhs and a start basis.
This referee takes any exact numbers, with or without a start.  It scales
each row and the costs to integers, negates a row whose rhs is negative and,
without a start, finds a feasible basis by phase 1.  Everything else runs on
cbd.simplex's own tableau, start install and phase 2, so on the same input
its pivots are solve_min's by construction.
"""

from __future__ import annotations

from cbd import simplex
from cbd.simplex import SimplexError
from cbd.systems import to_form


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
    """solve_min's (optimum, weights) for exact costs, rows and rhs of any
    sign; without a start, phase 1 finds a feasible basis."""
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
    tab, rhs_scale = simplex._tableau(int_rows, scaled_rhs, n)
    if start is not None:
        simplex._install(tab, start, n)
    elif rows:  # with no rows, the empty basis is already feasible
        _phase_one(tab, n)
    cost_scale, int_costs = _integer_form(costs)
    optimum, weights = simplex._phase_two(tab, int_costs, rhs_scale)
    return optimum / cost_scale, weights
