import random
from fractions import Fraction

import pytest

from cbd import analyze, liar_system, simplex
from cbd.coupling import build_coupling_lp
from cbd.oracle import enumerate_min
from cbd.simplex import SimplexError, solve_min
from helpers import lp_views, rand_system, rand_weights
import referee_simplex as referee

F = Fraction


def test_single_equality():
    opt, x = referee.solve_min([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    assert opt == 1
    assert sum(x.values()) == 1


def test_prefers_cheap_coordinate():
    opt, x = referee.solve_min([F(3), F(1)], [[F(1), F(1)]], [F(1)])
    assert opt == 1
    assert x == {1: F(1)}


def test_two_constraints():
    # x1 + x2 = 2, x2 + x3 = 1, minimize x1 + 2 x2 + 3 x3
    opt, x = referee.solve_min(
        [F(1), F(2), F(3)],
        [[F(1), F(1), F(0)], [F(0), F(1), F(1)]],
        [F(2), F(1)],
    )
    assert opt == 3  # x = (1, 1, 0)
    assert x == {0: F(1), 1: F(1)}


def test_negative_rhs_normalized():
    # -x1 - x2 = -1 is the same constraint as x1 + x2 = 1
    opt, _ = referee.solve_min([F(1), F(2)], [[F(-1), F(-1)]], [F(-1)])
    assert opt == 1


def test_infeasible():
    with pytest.raises(SimplexError, match="infeasible"):
        referee.solve_min([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])


def test_redundant_rows_accepted():
    opt, _ = referee.solve_min(
        [F(1), F(1)],
        [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]],
        [F(1), F(1), F(2)],
    )
    assert opt == 1


def test_unbounded_raises():
    with pytest.raises(SimplexError):
        referee.solve_min([F(-1)], [[F(0)]], [F(0)])


@pytest.mark.parametrize("start", [None, []])
def test_no_rows(start):
    # only x >= 0: x = 0 is optimal unless some cost is negative
    assert referee.solve_min([F(2), 0, F(1, 3)], [], [], start=start) == (0, {})
    assert referee.solve_min([], [], [], start=start) == (0, {})
    with pytest.raises(SimplexError, match="unbounded"):
        referee.solve_min([F(1), F(-1, 2)], [], [], start=start)


def test_degenerate_vertex_terminates():
    # several tight constraints meeting at x = 0 force degenerate pivots
    opt, _ = referee.solve_min(
        [F(1), F(1), F(1)],
        [[F(1), F(-1), F(0)], [F(1), F(0), F(-1)], [F(1), F(1), F(1)]],
        [F(0), F(0), F(3)],
    )
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
        opt, x = referee.solve_min(costs, rows, rhs)
        tv = sum(abs(a - b) for a, b in zip(u, v)) / 2
        assert opt == tv
        assert all(val > 0 for val in x.values())


def test_random_lps_match_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 6)
        # build a feasible instance: b = A x0 for a random nonnegative x0
        A = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in A]
        costs = [F(rng.randint(0, 5)) for _ in range(n)]
        opt, x = referee.solve_min(costs, A, b)
        best, _, _ = enumerate_min(costs, A, b)
        assert opt == best
        for row, bi in zip(A, b):
            assert sum(row[j] * v for j, v in x.items()) == bi


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
    opt, x = referee.solve_min(costs, rows, rhs)
    assert opt == F(-5, 4)
    assert opt == enumerate_min(costs, rows, rhs)[0]
    assert sum(costs[j] * v for j, v in x.items()) == opt


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
        opt, x = referee.solve_min(costs, A, b)
        assert opt == enumerate_min(costs, A, b)[0]
        assert all(isinstance(v, Fraction) and v > 0 for v in x.values())
        for row, bi in zip(A, b):
            assert sum(row[j] * v for j, v in x.items()) == bi
        assert sum(costs[j] * v for j, v in x.items()) == opt


def test_leftover_artificial_driven_out_on_negative_entry(monkeypatch):
    # Phase 1 ends with row 1's artificial basic at zero on the row -x3 = 0,
    # so it leaves on a negative pivot; row 2 (twice row 0) is dropped.
    negative = []
    pivot = referee._Tableau.pivot

    def recording(tab, r, s):
        negative.append(tab.rows[r][s] < 0)
        pivot(tab, r, s)

    monkeypatch.setattr(referee._Tableau, "pivot", recording)
    costs = [F(1), F(2), F(3)]
    rows = [[F(1), F(1), F(0)], [F(1), F(1), F(-1)], [F(2), F(2), F(0)]]
    rhs = [F(1), F(1), F(2)]
    opt, x = referee.solve_min(costs, rows, rhs)
    assert any(negative)
    assert opt == 1 == enumerate_min(costs, rows, rhs)[0]
    assert x == {0: F(1)}


def test_singular_start_raises():
    costs = [F(1), F(1), F(1)]
    rows = [[F(1), F(1), F(0)], [F(2), F(2), F(1)]]
    rhs = [F(1), F(3)]
    # column 1 is column 0 over these rows; a repeated or unknown column too
    for start in ([0, 1], [2, 2], [0, 3], [0, -1], [0]):
        with pytest.raises(SimplexError):
            referee.solve_min(costs, rows, rhs, start=start)
    assert referee.solve_min(costs, rows, rhs, start=[0, 2])[0] == 2


def test_infeasible_start_raises():
    # x0 + x2 = 1, x1 + x2 = 2: the basis {x2, x0} gives x2 = 2, x0 = -1
    costs = [F(1), F(1), F(1)]
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    rhs = [F(1), F(2)]
    with pytest.raises(SimplexError, match="infeasible"):
        referee.solve_min(costs, rows, rhs, start=[2, 0])
    assert referee.solve_min(costs, rows, rhs, start=[2, 1]) == referee.solve_min(
        costs, rows, rhs
    )


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
        opt, x = referee.solve_min(costs, rows, rhs, start=list(range(n, n + m)))
        assert (
            opt
            == referee.solve_min(costs, rows, rhs)[0]
            == enumerate_min(costs, rows, rhs)[0]
        )
        assert all(v > 0 for v in x.values())
        for row, b in zip(rows, rhs):
            assert sum(row[j] * v for j, v in x.items()) == b
        assert sum(costs[j] * v for j, v in x.items()) == opt


def test_integer_rows_skip_scaling(monkeypatch):
    # coupling LPs come as int costs and rows, which solve_min takes as they
    # are: the rows as cells, the costs unscaled.  The same LP as Fractions,
    # in dense rows, is scaled by the referee and solved by the same pivots,
    # both stopping at the LP's bound.
    # The spies count both modules' scalings (the referee's of rows and
    # costs, and the rhs column's in either module) and both solvers' pivots.
    scaled = []
    real_to_form = simplex.to_form

    def counted_to_form(values):
        scaled.append(values)
        return real_to_form(values)

    pivots = []
    real_pivot, real_dense_pivot = simplex._Revised.pivot, referee._Tableau.pivot

    def recorded_pivot(tab, r, s, col):
        pivots.append((r, s))
        real_pivot(tab, r, s, col)

    def recorded_dense_pivot(tab, r, s):
        pivots.append((r, s))
        real_dense_pivot(tab, r, s)

    monkeypatch.setattr(simplex, "to_form", counted_to_form)
    monkeypatch.setattr(referee, "to_form", counted_to_form)
    monkeypatch.setattr(simplex._Revised, "pivot", recorded_pivot)
    monkeypatch.setattr(referee._Tableau, "pivot", recorded_dense_pivot)
    rng = random.Random(47)
    solved = 0
    for _ in range(30):
        sys_ = rand_system(rng, ternary_share=0.3, max_block=3, max_atoms=128)
        lp = build_coupling_lp(sys_)
        costs = list(lp.objective)
        rhs = list(lp.rhs)
        rows = lp_views(sys_, lp).dense
        live = [r for r, _ in lp.start]
        cases = [
            (rows, rows, rhs, None),
            (
                [rows[r] for r in live],
                [lp.layout[r] for r in live],
                [rhs[r] for r in live],
                [c for _, c in lp.start],
            ),
        ]
        for dense, int_rows, b, start in cases:
            scaled.clear()
            pivots.clear()
            solve = referee.solve_min if start is None else solve_min
            result = solve(costs, int_rows, b, start, lp.bound)
            assert len(scaled) == 1  # the rhs column alone
            int_pivots = list(pivots)
            scaled.clear()
            pivots.clear()
            as_fractions = referee.solve_min(
                [F(c) for c in costs],
                [[F(a) for a in row] for row in dense],
                b,
                start=start,
                bound=lp.bound,
            )
            assert len(scaled) == len(dense) + 2  # every row, costs, rhs
            assert as_fractions == result and pivots == int_pivots
            _, x = result
            # only nonzero weights, keyed by column in ascending order, which
            # solve_lp takes as they are
            assert all(v > 0 for v in x.values())
            assert list(x) == sorted(x)
            solved += 1
    assert solved == 60


# the narrowed contract: int costs, rows as cells (stride, count, position)
# of int entries, a nonnegative rhs and a start.  The mass row of n columns
# is (n, 1, 0); over four columns in a 2 x 2 radix, (2, 2, 0) is {0, 1} and
# (1, 2, 0) is {0, 2}.


def test_non_int_input_raises():
    rows, rhs, start = [(2, 1, 0)], [F(1, 2)], [0]
    with pytest.raises(SimplexError, match="row"):
        solve_min([1, 2], [(F(2), 1, 0)], rhs, start, None)
    with pytest.raises(SimplexError, match="costs"):
        solve_min([F(1), 2], rows, rhs, start, None)
    assert solve_min([1, 2], rows, rhs, start, None) == (F(1, 2), {0: F(1, 2)})


def test_row_width_must_match_the_costs():
    # a row that is no cell of the columns would read columns it does not
    # have, or leave a column no row has, which could take weight: the old
    # dense rows [1] and [1, 1, 1] are refused, as are cells that do not fit
    # two columns and cells whose strides do not nest
    for rows in ([[1]], [[1, 1]]):
        with pytest.raises(SimplexError, match=r"\(stride, count, position\)"):
            solve_min([1, 1], rows, [1], [0], None)
    for row in ([1, 1, 1], (4, 1, 0), (1, 3, 0), (1, 2, 2), (0, 1, 0)):
        with pytest.raises(SimplexError, match="is no cell of 2 columns"):
            solve_min([1, 1], [row], [1], [0], None)
    # a dense row of three columns reads as a cell of one position; only
    # the mass row (n, 1, 0) may cover every column
    for row in ([1, 1, 0], (1, 1, 0)):
        with pytest.raises(SimplexError, match=r"every column: write it \(3, 1, 0\)"):
            solve_min([1, 1, 1], [row], [1], [0], None)
    assert solve_min([1, 1, 1], [(3, 1, 0)], [1], [0], None) == (1, {0: 1})
    with pytest.raises(SimplexError, match="counts 2 and 4"):
        solve_min([1] * 4, [(1, 2, 0), (1, 4, 1)], [1, 1], [0, 1], None)
    with pytest.raises(SimplexError, match="do not nest"):
        solve_min([1] * 4, [(2, 2, 0), (1, 4, 1)], [1, 1], [0, 1], None)
    # the dense referee keeps the dense form's check
    with pytest.raises(SimplexError, match="1 entries for 2 columns"):
        referee.solve_min([1, 1], [[1]], [1], start=[0])
    with pytest.raises(SimplexError, match="1 entries for 2 columns"):
        referee.solve_min([0, -1], [[1]], [1], start=[0])
    with pytest.raises(SimplexError, match="3 entries for 2 columns"):
        referee.solve_min([1, 1], [[1, 1, 1]], [1], start=[0])


def test_negative_rhs_raises():
    with pytest.raises(SimplexError, match="nonnegative"):
        solve_min([1, 2], [(2, 1, 0)], [F(-1)], [0], None)
    with pytest.raises(SimplexError, match="2 values for 1 rows"):
        solve_min([1, 2], [(2, 1, 0)], [1, 1], [0], None)


def test_start_is_required():
    with pytest.raises(TypeError):
        solve_min([1, 2], [(2, 1, 0)], [1])


def test_direct_start_negates_a_negative_pivot_row(monkeypatch):
    # rows {0, 1}, {0, 2} and mass: the start [0, 1, 3] installs x1 on the
    # entry -1 (row 1 less row 0 reads x2 - x1 = 1/4), so the pivot negates
    # its row, and the rhs check then refuses the start (x1 = -1/4)
    negative = []
    pivot, dense_pivot = simplex._Revised.pivot, referee._Tableau.pivot

    def recording(tab, r, s, col):
        negative.append(col[r] < 0)
        pivot(tab, r, s, col)

    def dense_recording(tab, r, s):
        negative.append(tab.rows[r][s] < 0)
        dense_pivot(tab, r, s)

    monkeypatch.setattr(simplex._Revised, "pivot", recording)
    monkeypatch.setattr(referee._Tableau, "pivot", dense_recording)
    rows = [(2, 2, 0), (1, 2, 0), (4, 1, 0)]
    rhs = [F(1, 4), F(1, 2), 1]
    costs = [0, 3, 3, 1]
    with pytest.raises(SimplexError, match="infeasible"):
        solve_min(costs, rows, rhs, [0, 1, 3], None)
    assert negative == [False, True, False]
    # from the feasible start [1, 2, 3], x0 enters: cost 5/2 - 5*x0
    assert solve_min(costs, rows, rhs, [1, 2, 3], None) == (
        F(5, 4), {0: F(1, 4), 2: F(1, 4), 3: F(1, 2)}
    )
    dense = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    assert referee.solve_min(costs, dense, rhs, start=[1, 2, 3]) == (
        F(5, 4), {0: F(1, 4), 2: F(1, 4), 3: F(1, 2)}
    )
    # the dense tableau negates the same way: test_infeasible_start_raises
    # on int input, where the start [2, 0] installs x0 on the entry -1
    negative.clear()
    dense = [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(SimplexError, match="infeasible"):
        referee.solve_min([1, 1, 1], dense, [1, 2], start=[2, 0])
    assert negative == [False, True]
    assert referee.solve_min([1, 1, 1], dense, [1, 2], start=[2, 1]) == (
        2, {1: 1, 2: 1}
    )


# the lower bound: the LP of test_direct_start_negates_a_negative_pivot_row,
# whose optimum is 5/4 at x0 = x2 = 1/4, x3 = 1/2


BOUND_LP = ([0, 3, 3, 1], [(2, 2, 0), (1, 2, 0), (4, 1, 0)], [F(1, 4), F(1, 2), 1])
BOUND_DENSE = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
BOUND_OPTIMUM = (F(5, 4), {0: F(1, 4), 2: F(1, 4), 3: F(1, 2)})


def count_pricing_passes(monkeypatch):
    passes = []
    prices = simplex._Revised.prices

    def counted(tab, costs):
        passes.append(tab.pivots)
        return prices(tab, costs)

    monkeypatch.setattr(simplex._Revised, "prices", counted)
    return passes


def test_bound_equal_to_the_optimum_returns_the_same_solution(monkeypatch):
    costs, rows, rhs = BOUND_LP
    passes = count_pricing_passes(monkeypatch)
    # from the start [1, 2, 3], x0 enters once; a bound below the optimum
    # never stops the solve, and neither does None
    for bound in (None, F(5, 4), 1, F(-3)):
        passes.clear()
        assert solve_min(costs, rows, rhs, [1, 2, 3], bound) == BOUND_OPTIMUM
        assert len(passes) == (1 if bound == F(5, 4) else 2)
        assert referee.solve_min(
            costs, BOUND_DENSE, rhs, start=[1, 2, 3], bound=bound
        ) == BOUND_OPTIMUM
    # the start [0, 2, 3] is optimal: the bound stops the solve at install,
    # before the pricing pass that would prove it
    for bound, count in ((None, 1), (F(5, 4), 0)):
        passes.clear()
        assert solve_min(costs, rows, rhs, [0, 2, 3], bound) == BOUND_OPTIMUM
        assert len(passes) == count


def test_bound_above_the_optimum_raises():
    costs, rows, rhs = BOUND_LP
    for bound in (F(3, 2), 2, F(5, 4) + F(1, 10**30)):
        with pytest.raises(SimplexError, match="fell below its lower bound"):
            solve_min(costs, rows, rhs, [1, 2, 3], bound)
        with pytest.raises(SimplexError, match="fell below its lower bound"):
            referee.solve_min(costs, BOUND_DENSE, rhs, start=[1, 2, 3], bound=bound)
    # at install already: the start [0, 2, 3] is optimal
    with pytest.raises(SimplexError, match="objective 5/4 fell below its lower bound 2"):
        solve_min(costs, rows, rhs, [0, 2, 3], 2)


def test_bound_must_be_exact():
    costs, rows, rhs = BOUND_LP
    for bound in (1.25, "5/4", True):
        with pytest.raises(SimplexError, match="the bound must be"):
            solve_min(costs, rows, rhs, [1, 2, 3], bound)



def test_the_z_row_is_held_from_the_first_pivot(monkeypatch):
    # after every pivot, install pivots included, the tableau holds the m
    # rows [E | beta] and last the z-row [-pi | -c_B.beta], which is minus
    # the sum of c_B(i) * row i over the current basis (an artificial
    # column costs 0), updated by the same step as every other row
    from identity_corpus import corpus, mixture

    pivot = simplex._Revised.pivot
    lp = None
    checked = []

    def checking(tab, r, s, col):
        pivot(tab, r, s, col)
        assert len(tab.rows) == len(lp.start) + 1
        *rows, z = tab.rows
        cb = [lp.objective[j] if j < len(lp.objective) else 0 for j in tab.basis]
        assert z == [-sum(c * row[k] for c, row in zip(cb, rows)) for k in range(len(z))]
        checked.append(s)

    monkeypatch.setattr(simplex._Revised, "pivot", checking)
    systems = [mixture(liar_system(n)) for n in range(2, 11)]
    for make in corpus().values():
        systems += make()[:50]
    assert len(systems) == 174
    for sys_ in systems:
        lp = build_coupling_lp(sys_)
        analyze(sys_)
    assert len(checked) > 1000
