"""The basis-enumeration oracle's contract, independent of how it searches."""

import inspect
import sys
from fractions import Fraction

import pytest

import cbd.oracle
from cbd.oracle import TooManyBases, enumerate_min, exact_rank

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
