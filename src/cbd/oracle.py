"""Brute-force cross-check for small equality-constrained minimizations.

Enumerates every basic solution of {x : A x = b, x >= 0} by plain Gaussian
elimination over column subsets and takes the minimum objective over the
feasible ones.  For a bounded feasible set the minimum over basic feasible
solutions equals the LP optimum, so this is an independent oracle for the
simplex path: the two share no pivoting code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)

# comb(n, rank) above this refuses rather than grinding forever
DEFAULT_BASIS_LIMIT = 2_000_000


class TooManyBases(ValueError):
    """The basis search space exceeds the configured limit."""


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_cols): the nonzero reduced rows and the pivot column
    of each.  The input is not modified.
    """
    rows = [[Fraction(a) for a in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(r, len(rows)) if rows[i][col] != 0), -1
        )
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def exact_rank(matrix) -> int:
    """Rank of a rational matrix, by exact elimination."""
    _, pivots = rref(matrix)
    return len(pivots)


def _solve_square(mat, rhs):
    """Solve a square rational system; None if singular."""
    n = len(rhs)
    if n == 0:
        return []
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    reduced, pivots = rref(aug)
    if len(pivots) < n or pivots[-1] >= n:
        # rank-deficient, or an inconsistent 0 = 1 row pivoting on the rhs
        return None
    x = [ZERO] * n
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


def enumerate_min(costs, rows, rhs):
    """Minimum of costs . x over all basic feasible solutions of rows.x == rhs.

    Returns (optimum, x, n_bases) with one minimizing basic solution and the
    number of column subsets examined.  Returns (None, None, n) when no basis
    is feasible (the system is infeasible).  Raises TooManyBases when
    comb(n_cols, rank) exceeds DEFAULT_BASIS_LIMIT.
    """
    n = len(costs)
    costs = [Fraction(c) for c in costs]
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if any(p == n for p in pivots):
        return None, None, 0  # a row reduced to 0 = 1: infeasible outright
    rank = len(pivots)
    n_bases = math.comb(n, rank)
    if n_bases > DEFAULT_BASIS_LIMIT:
        raise TooManyBases(
            f"{n_bases} candidate bases exceed the limit of {DEFAULT_BASIS_LIMIT}"
        )
    red_rhs = [row[-1] for row in reduced]
    best = None
    best_x = None
    for cols in combinations(range(n), rank):
        sub = [[row[c] for c in cols] for row in reduced]
        sol = _solve_square(sub, red_rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [ZERO] * n
        for c, v in zip(cols, sol):
            x[c] = v
        value = sum(cv * xv for cv, xv in zip(costs, x))
        if best is None or value < best:
            best = value
            best_x = x
    return best, best_x, n_bases
