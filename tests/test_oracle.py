"""The basis-enumeration oracle's contract, independent of how it searches."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

import cbd.oracle
from cbd.oracle import TooManyBases, enumerate_min, exact_rank
from helpers import full_lp, rand_system

F = Fraction


def test_no_rows_is_the_zero_vector():
    assert exact_rank([]) == 0
    assert enumerate_min([F(1), F(-2), F(3)], [], []) == (0, [F(0)] * 3, 1)


def test_row_reducing_to_zero_equals_one_is_infeasible():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert enumerate_min([F(1), F(1)], rows, [F(1), F(3)]) == (None, None, 0)


def test_no_feasible_basis_counts_the_subsets():
    # x0 + x1 = -1: both bases are examined, and neither is nonnegative
    rows = [[F(1), F(1)]]
    assert enumerate_min([F(1), F(1)], rows, [F(-1)]) == (None, None, 2)


def test_duplicated_row_is_rank_deficient():
    rows = [[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    rhs = [F(1), F(1), F(1)]
    assert exact_rank(rows) == 2
    # bases {0, 1} and {1, 2} give x = (0, 1, 0); {0, 2} gives (1, 0, 1)
    assert enumerate_min([F(1), F(2), F(3)], rows, rhs) == (2, [0, 1, 0], 3)
    assert enumerate_min([F(1), F(5), F(1)], rows, rhs) == (2, [1, 0, 1], 3)


def test_tie_returns_the_first_basis_in_combinations_order():
    optimum, x, n_bases = enumerate_min([F(0), F(0)], [[F(1), F(1)]], [F(1)])
    assert (optimum, x, n_bases) == (0, [F(1), F(0)], 2)


def test_too_many_bases(monkeypatch):
    monkeypatch.setattr(cbd.oracle, "DEFAULT_BASIS_LIMIT", 5)
    rows = [[F(1)] * 4, [F(1), F(2), F(3), F(4)]]
    with pytest.raises(TooManyBases, match="6 candidate bases"):
        enumerate_min([F(1)] * 4, rows, [F(1), F(2)])
    assert enumerate_min([F(1)] * 4, rows[:1], [F(1)])[2] == 4


def test_rank_above_the_recursion_limit():
    # the search keeps its own stack, so its depth (the rank) is not bounded
    # by Python's recursion limit
    saved = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + 60
    n = limit + 20
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rhs = [F(i % 3) for i in range(n)]
    try:
        sys.setrecursionlimit(limit)
        result = enumerate_min([F(1)] * n, rows, rhs)
    finally:
        sys.setrecursionlimit(saved)
    assert result == (sum(rhs), rhs, 1)


def test_a_zero_row_holds_its_columns_at_zero():
    # x0 + x1 = 0 holds x0 and x1 at 0: one column and one row are left
    rows = [[F(1), F(1), F(0)], [F(1), F(1), F(1)]]
    assert enumerate_min([F(1), F(1), F(5)], rows, [F(0), F(1)]) == (5, [0, 0, 1], 1)
    # x0 - x1 = 0 holds nothing: its entries are not all nonnegative
    rows = [[F(1), F(-1)], [F(1), F(1)]]
    assert enumerate_min([F(1), F(1)], rows, [F(0), F(2)]) == (2, [1, 1], 1)


def _without_presolve(rows, rhs):
    """The same equations with each row of rhs 0 negated, so that no row of
    rhs 0 has only nonnegative entries unless it is all zero."""
    return [[-a for a in row] if b == 0 else row for row, b in zip(rows, rhs)]


def test_presolve_keeps_the_optimum_of_seeded_lps():
    rng = random.Random(83)
    lps = []
    for _ in range(30):
        full = full_lp(rand_system(rng, ternary_share=0.3, max_atoms=16))
        lps.append((full.objective, full.dense, full.rhs))
    for _ in range(60):
        n, m = rng.randint(2, 8), rng.randint(1, 4)
        rows = [[F(rng.choice((-1, 0, 0, 1, 2))) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.choice((0, 0, 1, 2))) for _ in range(m)]
        lps.append(([F(rng.randint(-2, 3)) for _ in range(n)], rows, rhs))
    held = 0
    for costs, rows, rhs in lps:
        optimum, x, n_bases = enumerate_min(costs, rows, rhs)
        negated = _without_presolve(rows, rhs)
        if negated != rows:  # else the presolve holds no column
            plain, _, all_bases = enumerate_min(costs, negated, rhs)
            assert optimum == plain
            held += n_bases < all_bases
        if x is not None:
            assert len(x) == len(costs) and min(x) >= 0
            assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
            assert sum(c * v for c, v in zip(costs, x)) == optimum
    assert held >= 15
