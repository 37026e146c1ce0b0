"""Brute-force cross-check of the coupling LP, built and solved on its own.

coupling_lp builds the full coupling LP of a system from plain data, by its
definition: every atom, a row for every context cell, zero cells included,
and a cost per atom from its own pairing of the content-sharing variables.
enumerate_min enumerates every basic solution of {x : A x = b, x >= 0} and
takes the minimum objective over the feasible ones; for a bounded feasible
set that is the LP optimum.  It first drops each row of rhs 0 with no
negative entry and the columns that row holds at 0.  The column subsets
left are walked depth first in combinations order, each one's table its
prefix's pivoted once more by rref's Gauss-Jordan step; a column left with
no nonzero in an unpivoted row depends on the prefix, so that subset and
its extensions are singular and skipped.  An independent oracle for the LP
build and the simplex path: it imports nothing from the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

ZERO = Fraction(0)

# comb(n, rank) above this refuses rather than grinding forever
DEFAULT_BASIS_LIMIT = 2_000_000
# coupling_lp's dense rows hold rows x atoms entries: above this, refuse
# rather than exhaust memory (3.9 million entries took 1.5 s and 76 MB peak
# RSS in cbd oracle on one Xeon core, Python 3.11)
DEFAULT_ENTRY_LIMIT = 4_000_000


class TooManyBases(ValueError):
    """The basis search space exceeds the configured limit."""


class LPTooLarge(ValueError):
    """The dense LP coupling_lp would build exceeds the configured limit.
    args: its entry count, which can be too long for str(), and the limit."""


def check_size(outcomes, contexts):
    """Refuse, before coupling_lp builds it, an LP too large for the oracle.

    outcomes and contexts are coupling_lp's arguments.  coupling_lp builds a
    dense row over every atom, the product of every variable's outcome
    count, for each cell of each context's outcome product and for the
    mass: raises LPTooLarge when those (1 + total cells) * atoms entries
    exceed DEFAULT_ENTRY_LIMIT.  This is the oracle's one size rule: no atom
    cap applies to it.  enumerate_min's presolve then drops every atom a
    zero cell covers; the n' atoms left are the product over the contexts
    of their positive cells, and on that product the positive cells' rows,
    mass included, have rank 1 + sum(positive - 1).  Raises TooManyBases
    when the comb(n', rank) bases it would count exceed DEFAULT_BASIS_LIMIT.
    """
    cells = [math.prod(len(outcomes[q]) for q in contents) for _, contents, _ in contexts]
    entries = (1 + sum(cells)) * math.prod(cells)
    if entries > DEFAULT_ENTRY_LIMIT:
        raise LPTooLarge(entries, DEFAULT_ENTRY_LIMIT)
    positive = [sum(p > 0 for p in table.values()) for _, _, table in contexts]
    n_bases = math.comb(math.prod(positive), 1 + sum(positive) - len(positive))
    if n_bases > DEFAULT_BASIS_LIMIT:
        raise TooManyBases(
            f"{n_bases} candidate bases exceed the limit of {DEFAULT_BASIS_LIMIT}"
        )


def coupling_lp(outcomes, contexts):
    """The full coupling LP of a system, as (atoms, rows, rhs, costs).

    outcomes maps each content to its outcome tuple; contexts lists
    (id, contents, table) triples, table mapping outcome tuples in contents
    order to their probabilities, a cell it lacks having probability 0.
    The atoms are every assignment of outcomes to the sorted (context,
    content) variables, in product order.  rows are dense 0/1 lists over the
    atoms: one per cell of each context's outcome product, whose rhs is the
    cell's probability, then the mass row, whose rhs is 1.  An atom's cost
    is the number of pairs of variables sharing a content to which it gives
    different outcomes.
    """
    variables = sorted((c, q) for c, contents, _ in contexts for q in contents)
    atoms = list(itertools.product(*(outcomes[q] for _, q in variables)))
    rows, rhs = [], []
    for c, contents, table in contexts:
        where = [variables.index((c, q)) for q in contents]
        cells = list(itertools.product(*(outcomes[q] for q in contents)))
        row_of = {cell: len(rows) + k for k, cell in enumerate(cells)}
        rows += [[0] * len(atoms) for _ in cells]
        rhs += [table.get(cell, ZERO) for cell in cells]
        for a, atom in enumerate(atoms):
            rows[row_of[tuple(atom[k] for k in where)]][a] = 1
    rows.append([1] * len(atoms))
    rhs.append(Fraction(1))
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(variables)), 2)
        if variables[i][1] == variables[j][1]
    ]
    costs = [sum(atom[i] != atom[j] for i, j in pairs) for atom in atoms]
    return atoms, rows, rhs, costs


def _pivot(rows, r, col):
    """Scale rows[r] to 1 in col and clear col from every other row."""
    # rows are replaced, never modified: a shallow copy keeps its own table
    pivot = [a / rows[r][col] for a in rows[r]]
    rows[r] = pivot
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            factor = row[col]
            rows[i] = [a - factor * b for a, b in zip(row, pivot)]


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_cols): the nonzero reduced rows and the pivot column
    of each.  The input is not modified.
    """
    rows = [[Fraction(a) for a in row] for row in matrix]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            _pivot(rows, r, col)
            pivots.append(col)
    return rows[: len(pivots)], pivots


def exact_rank(matrix) -> int:
    """Rank of a rational matrix, by exact elimination."""
    _, pivots = rref(matrix)
    return len(pivots)


def enumerate_min(costs, rows, rhs):
    """Minimum of costs . x over all basic feasible solutions of rows.x == rhs.

    A presolve comes first: with x >= 0, a row whose rhs is 0 and whose
    entries are all nonnegative holds at 0 every column where it is
    positive, so those columns and the row are dropped, and the bases of
    the n' columns left are enumerated.  Returns (optimum, x, n_bases) with
    x at full length, 0 in every dropped column, the first minimizing basic
    solution in combinations order of the columns left, and n_bases the
    number comb(n', rank) of their column subsets.  Returns
    (None, None, n_bases) when no basis is feasible, and (None, None, 0)
    when a row reduces to 0 = 1.  Raises TooManyBases when comb(n', rank)
    exceeds DEFAULT_BASIS_LIMIT.
    """
    fixing = [b == 0 and all(a >= 0 for a in row) for row, b in zip(rows, rhs)]
    held = {j for row, f in zip(rows, fixing) if f for j, a in enumerate(row) if a > 0}
    kept = [j for j in range(len(costs)) if j not in held]
    n = len(kept)
    costs = [Fraction(c) for c in costs]
    reduced, pivots = rref(
        [[row[j] for j in kept] + [b] for row, b, f in zip(rows, rhs, fixing) if not f]
    )
    if any(p == n for p in pivots):
        return None, None, 0  # a row reduced to 0 = 1: infeasible outright
    rank = len(pivots)
    n_bases = math.comb(n, rank)
    if n_bases > DEFAULT_BASIS_LIMIT:
        raise TooManyBases(
            f"{n_bases} candidate bases exceed the limit of {DEFAULT_BASIS_LIMIT}"
        )
    best = best_x = None
    # (columns, table): table's row k is pivoted on columns[k]; children are
    # pushed last first, so the leaves pop in combinations order
    stack = [((), reduced)]
    while stack:
        cols, table = stack.pop()
        k = len(cols)
        if k == rank:
            x = [ZERO] * len(costs)
            for c, row in zip(cols, table):
                x[kept[c]] = row[-1]
            value = sum(cv * xv for cv, xv in zip(costs, x))
            if all(v >= 0 for v in x) and (best is None or value < best):
                best, best_x = value, x
            continue
        for c in reversed(range(cols[-1] + 1 if cols else 0, n - rank + k + 1)):
            i = next((i for i in range(k, rank) if table[i][c] != 0), None)
            if i is not None:  # else c depends on cols: skip every extension
                child = list(table)
                child[k], child[i] = child[i], child[k]
                _pivot(child, k, c)
                stack.append((cols + (c,), child))
    return best, best_x, n_bases
