import random
from fractions import Fraction

import pytest

from cbd import simplex
from cbd.coupling import build_coupling_lp, dense_rows
from cbd.oracle import enumerate_min
from cbd.simplex import ZERO, SimplexError, solve_min
from helpers import rand_system, rand_weights

F = Fraction


def test_single_equality():
    status, opt, x = solve_min([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    assert status == "optimal"
    assert opt == 1
    assert sum(x) == 1


def test_prefers_cheap_coordinate():
    status, opt, x = solve_min([F(3), F(1)], [[F(1), F(1)]], [F(1)])
    assert status == "optimal"
    assert opt == 1
    assert x == [F(0), F(1)]


def test_two_constraints():
    # x1 + x2 = 2, x2 + x3 = 1, minimize x1 + 2 x2 + 3 x3
    status, opt, x = solve_min(
        [F(1), F(2), F(3)],
        [[F(1), F(1), F(0)], [F(0), F(1), F(1)]],
        [F(2), F(1)],
    )
    assert status == "optimal"
    assert opt == 3  # x = (1, 1, 0)
    assert x == [F(1), F(1), F(0)]


def test_negative_rhs_normalized():
    # -x1 - x2 = -1 is the same constraint as x1 + x2 = 1
    status, opt, _ = solve_min([F(1), F(2)], [[F(-1), F(-1)]], [F(-1)])
    assert status == "optimal"
    assert opt == 1


def test_infeasible():
    status, opt, x = solve_min(
        [F(1)], [[F(1)], [F(1)]], [F(1), F(2)]
    )
    assert status == "infeasible"
    assert opt is None and x is None


def test_redundant_rows_accepted():
    status, opt, _ = solve_min(
        [F(1), F(1)],
        [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]],
        [F(1), F(1), F(2)],
    )
    assert status == "optimal"
    assert opt == 1


def test_unbounded_raises():
    with pytest.raises(SimplexError):
        solve_min([F(-1)], [[F(0)]], [F(0)])


def test_degenerate_vertex_terminates():
    # several tight constraints meeting at x = 0 force degenerate pivots
    status, opt, _ = solve_min(
        [F(1), F(1), F(1)],
        [[F(1), F(-1), F(0)], [F(1), F(0), F(-1)], [F(1), F(1), F(1)]],
        [F(0), F(0), F(3)],
    )
    assert status == "optimal"
    assert opt == 3  # x = (1, 1, 1) is the only feasible point


def test_transportation_matches_total_variation():
    # min sum of off-diagonal mass over couplings == (1/2) sum |u - v|
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 4)
        u = rand_weights(rng, k)
        v = rand_weights(rng, k)
        n = k * k
        costs = [F(1) if i != j else F(0) for i in range(k) for j in range(k)]
        rows = []
        rhs = []
        for i in range(k):  # row margins
            rows.append([F(1) if a == i else F(0) for a in range(k) for _ in range(k)])
            rhs.append(u[i])
        for j in range(k):  # column margins
            rows.append([F(1) if b == j else F(0) for _ in range(k) for b in range(k)])
            rhs.append(v[j])
        status, opt, x = solve_min(costs, rows, rhs)
        assert status == "optimal"
        tv = sum(abs(a - b) for a, b in zip(u, v)) / 2
        assert opt == tv
        assert all(val >= 0 for val in x)


def test_random_lps_match_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 6)
        # build a feasible instance: b = A x0 for a random nonnegative x0
        A = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in A]
        costs = [F(rng.randint(0, 5)) for _ in range(n)]
        status, opt, x = solve_min(costs, A, b)
        assert status == "optimal"
        best, _, _ = enumerate_min(costs, A, b)
        assert opt == best
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == bi


def test_beale_cycling_lp():
    # Beale's example, on which Dantzig's rule with a naive tie-break cycles
    # from the slack basis; the optimum is x4 = x6 = 1, x1 = 3/4.
    costs = [F(0), F(0), F(0), F(-3, 4), F(20), F(-1, 2), F(6)]
    rows = [
        [F(1), F(0), F(0), F(1, 4), F(-8), F(-1), F(9)],
        [F(0), F(1), F(0), F(1, 2), F(-12), F(-1, 2), F(3)],
        [F(0), F(0), F(1), F(0), F(0), F(1), F(0)],
    ]
    rhs = [F(0), F(0), F(1)]
    status, opt, x = solve_min(costs, rows, rhs)
    assert status == "optimal"
    assert opt == F(-5, 4)
    assert opt == enumerate_min(costs, rows, rhs)[0]
    assert sum(c * v for c, v in zip(costs, x)) == opt


def zero_rhs_row(rng, x0):
    """A row of mixed-sign Fractions orthogonal to x0 (so its rhs is 0)."""
    row = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in x0]
    j = next(k for k, v in enumerate(x0) if v > 0)
    row[j] -= sum(a * v for a, v in zip(row, x0)) / x0[j]
    return row


def test_random_mixed_sign_degenerate_lps_match_enumeration():
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(3, 7)
        x0 = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        x0[rng.randrange(n)] += 1  # at least one positive coordinate
        A = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]
        A += [zero_rhs_row(rng, x0) for _ in range(rng.randint(1, 2))]
        if trial % 2:
            # a total-mass row bounds the polytope, so costs may be negative
            A.append([F(1)] * n)
            costs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        else:
            costs = [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
        status, opt, x = solve_min(costs, A, b)
        assert status == "optimal"
        assert opt == enumerate_min(costs, A, b)[0]
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == bi
        assert sum(c * v for c, v in zip(costs, x)) == opt


def test_leftover_artificial_driven_out_on_negative_entry(monkeypatch):
    # Phase 1 ends with row 1's artificial basic at zero on the row -x3 = 0,
    # so it leaves on a negative pivot; row 2 (twice row 0) is dropped.
    negative = []
    pivot = simplex._Tableau.pivot

    def recording(tab, r, s):
        negative.append(tab.rows[r][s] < 0)
        pivot(tab, r, s)

    monkeypatch.setattr(simplex._Tableau, "pivot", recording)
    costs = [F(1), F(2), F(3)]
    rows = [[F(1), F(1), F(0)], [F(1), F(1), F(-1)], [F(2), F(2), F(0)]]
    rhs = [F(1), F(1), F(2)]
    status, opt, x = solve_min(costs, rows, rhs)
    assert any(negative)
    assert status == "optimal"
    assert opt == 1 == enumerate_min(costs, rows, rhs)[0]
    assert x == [F(1), F(0), F(0)]


def test_singular_start_raises():
    costs = [F(1), F(1), F(1)]
    rows = [[F(1), F(1), F(0)], [F(2), F(2), F(1)]]
    rhs = [F(1), F(3)]
    # column 1 is column 0 over these rows; a repeated or unknown column too
    for start in ([0, 1], [2, 2], [0, 3], [0, -1], [0]):
        with pytest.raises(SimplexError):
            solve_min(costs, rows, rhs, start=start)
    assert solve_min(costs, rows, rhs, start=[0, 2])[1] == 2


def test_infeasible_start_raises():
    # x0 + x2 = 1, x1 + x2 = 2: the basis {x2, x0} gives x2 = 2, x0 = -1
    costs = [F(1), F(1), F(1)]
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    rhs = [F(1), F(2)]
    with pytest.raises(SimplexError, match="infeasible"):
        solve_min(costs, rows, rhs, start=[2, 0])
    assert solve_min(costs, rows, rhs, start=[2, 1]) == solve_min(costs, rows, rhs)


def test_slack_start_matches_two_phase():
    # [A | sI] x = b with b >= 0: the slack columns are a feasible basis; with
    # s = 2 they install by non-unit pivots, through the general update
    rng = random.Random(43)
    for trial in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        s = 1 + trial % 2
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            + [F(s * int(i == k)) for k in range(m)]
            for i in range(m)
        ]
        rhs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(m)]
        # nonnegative costs keep every instance bounded
        costs = [F(rng.randint(0, 5), rng.randint(1, 2)) for _ in range(n + m)]
        status, opt, x = solve_min(costs, rows, rhs, start=list(range(n, n + m)))
        assert status == "optimal"
        assert opt == solve_min(costs, rows, rhs)[1] == enumerate_min(costs, rows, rhs)[0]
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
        assert sum(c * v for c, v in zip(costs, x)) == opt


def test_integer_rows_skip_scaling(monkeypatch):
    # coupling LPs come as int rows and costs, which solve_min takes as they
    # are; the same LP as Fractions is scaled and solved by the same pivots
    scaled = []
    real_to_form = simplex.to_form

    def counted_to_form(values):
        scaled.append(values)
        return real_to_form(values)

    pivots = []
    real_pivot = simplex._Tableau.pivot

    def recorded_pivot(tab, r, s):
        pivots.append((r, s))
        real_pivot(tab, r, s)

    monkeypatch.setattr(simplex, "to_form", counted_to_form)
    monkeypatch.setattr(simplex._Tableau, "pivot", recorded_pivot)
    rng = random.Random(47)
    solved = 0
    for _ in range(30):
        lp = build_coupling_lp(
            rand_system(rng, ternary_share=0.3, max_block=3, max_atoms=128),
            support=True,
        )
        costs = list(lp.objective)
        rhs = [row.rhs for row in lp.rows]
        rows = dense_rows(lp, lp.rows)
        live = [r for r, _ in lp.start]
        start_rows = [rows[r] for r in live]
        cases = [
            (rows, rhs, None),
            (start_rows, [rhs[r] for r in live], [c for _, c in lp.start]),
        ]
        for int_rows, b, start in cases:
            scaled.clear()
            pivots.clear()
            result = solve_min(costs, int_rows, b, start=start)
            assert len(scaled) == 1  # the rhs column alone
            int_pivots = list(pivots)
            scaled.clear()
            pivots.clear()
            as_fractions = solve_min(
                [F(c) for c in costs],
                [[F(a) for a in row] for row in int_rows],
                b,
                start=start,
            )
            assert len(scaled) == len(int_rows) + 2  # every row, costs, rhs
            assert as_fractions == result and pivots == int_pivots
            status, optimum, x = result
            assert status == "optimal"
            # the zeros of x are ZERO itself, which solve_lp relies on
            assert all(v is ZERO or v > 0 for v in x)
            solved += 1
    assert solved == 60
