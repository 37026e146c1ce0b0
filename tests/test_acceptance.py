"""End-to-end checks of the exact contextuality pipeline.

Each test covers one numbered claim about the package as a whole, from the
frozen reference instances to randomized cross-checks of the LP against an
independent basis-enumeration oracle.  Every test records a PASS/FAIL line
that the conftest hook prints in the terminal summary, one line per claim.
All equalities are exact rational comparisons; tolerance 0.
"""

import contextlib
import random
from fractions import Fraction

from conftest import ACCEPTANCE_RESULTS

from cbd import (
    MINUS,
    PLUS,
    analyze,
    build_coupling_lp,
    cyclic_criterion,
    delta_pairs,
    enumerate_variants,
    is_consistently_connected,
    liar_system,
    marginal,
    solve_lp,
    system_delta,
    uniform_mixture,
    validate_system,
    verify_solution,
)
from cbd.oracle import exact_rank
from helpers import (
    M,
    P,
    c2_system,
    full_lp,
    is_solution,
    lp_cnt,
    lp_path_report,
    lp_views,
    on_full_lp,
    order_effect_oracle_min,
    order_effect_system,
    pm_registry,
    rand_c2,
    rand_c2_equal_correlation,
    rand_deterministic,
    rand_system,
    relabel,
    two_phase_optimum,
)

F = Fraction


@contextlib.contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        line = f"FAIL criterion {n}: {description}"
        print(line)
        ACCEPTANCE_RESULTS.append(line)
        raise
    line = f"PASS criterion {n}: {description}"
    print(line)
    ACCEPTANCE_RESULTS.append(line)


def atom_count(system) -> int:
    total = 1
    for _, q in system.variables:
        total *= len(system.outcomes[q])
    return total


def test_criterion_1_order_effect_pair():
    with criterion(
        1,
        "order-effect pair: consistently connected yet contextual, "
        "optimum 1/2 confirmed by basis enumeration",
    ):
        sys_ = order_effect_system()
        assert is_consistently_connected(sys_).overall
        report = analyze(sys_)
        assert report.delta_sum == 0
        assert report.system_delta == F(1, 2)
        assert report.cnt == F(1, 2)
        assert report.contextual
        assert order_effect_oracle_min() == F(1, 2)


def test_criterion_2_coupling_lp_shape():
    with criterion(
        2,
        "pair coupling LP: 16 atoms, 8 cell equalities of rank 7, "
        "mass row adds no rank",
    ):
        sys_ = order_effect_system()
        full = full_lp(sys_)
        assert len(full.atoms) == 16
        cells_only = full.dense[:-1]
        assert len(cells_only) == 8
        assert len(full.dense) == 9
        assert full.dense[-1] == [1] * 16  # the mass row
        assert exact_rank(cells_only) == 7
        assert exact_rank(full.dense) == 7


def test_criterion_3_liar_chains():
    with criterion(
        3,
        "liar rings n=2..6: consistently connected, every isolated delta 0, "
        "cnt exactly 1; ring tables exact at n=4",
    ):
        fair = {PLUS: F(1, 2), MINUS: F(1, 2)}
        for n in range(2, 7):
            spec = liar_system(n)
            mix = uniform_mixture(spec, enumerate_variants(spec))
            assert is_consistently_connected(mix).overall
            for ctx, q in mix.variables:
                assert marginal(mix, q, ctx).probs == fair
            report = analyze(mix)
            assert all(pd.delta == 0 for pd in report.pair_deltas)
            assert report.delta_sum == 0
            assert report.system_delta == 1
            assert report.cnt == 1
            assert report.contextual

        spec = liar_system(4)
        mix = uniform_mixture(spec, enumerate_variants(spec))
        half = F(1, 2)
        for cid in ("c1", "c2", "c3"):
            assert mix.block(cid).table == {
                (PLUS, PLUS): half,
                (MINUS, MINUS): half,
            }
        assert mix.block("c4").table == {
            (PLUS, MINUS): half,
            (MINUS, PLUS): half,
        }


def test_criterion_4_deterministic_never_contextual():
    with criterion(
        4,
        "500 random deterministic systems: cnt 0 on the fast path, and the "
        "LP path returns the identical report on every small instance",
    ):
        rng = random.Random(104)
        lp_checked = 0
        for _ in range(500):
            sys_ = rand_deterministic(rng)
            report = analyze(sys_)
            assert report.deterministic
            assert report.cnt == 0
            assert not report.contextual
            assert report.system_delta == report.delta_sum
            if atom_count(sys_) <= 16:
                slow = lp_path_report(sys_)
                assert slow == report
                lp_checked += 1
        assert lp_checked >= 50


def test_criterion_5_rank2_criterion_matches_lp():
    with criterion(
        5,
        "200 random rank-2 cycles: the closed-form criterion and the LP "
        "agree on every verdict and every exact cnt",
    ):
        rng = random.Random(105)
        n_contextual = 0
        for _ in range(200):
            sys_ = rand_c2(rng)
            verdict = cyclic_criterion(sys_)
            report = analyze(sys_)
            assert report.contextual == (report.cnt > 0)
            assert verdict.contextual == report.contextual
            # the LP solved to the end, not stopped at the closed form
            assert verdict.cnt == report.cnt == lp_cnt(sys_)
            n_contextual += int(verdict.contextual)
        # both verdicts must actually occur for the check to mean anything
        assert 0 < n_contextual < 200


def test_criterion_6_isolated_deltas():
    with criterion(
        6,
        "200 random binary marginal pairs: delta equals |u - v|, equals the "
        "two-context coupling optimum, and the minimal table reproduces it",
    ):
        rng = random.Random(106)
        for _ in range(200):
            u = F(rng.randint(0, 16), 16)
            v = F(rng.randint(0, 16), 16)
            sys_ = validate_system(
                pm_registry("q"),
                [
                    ("c1", ("q",), {(P,): u, (M,): 1 - u}),
                    ("c2", ("q",), {(P,): v, (M,): 1 - v}),
                ],
            )
            d = delta_pairs(sys_)[0].delta
            assert d == abs(u - v)
            optimum, witness = system_delta(sys_)
            assert optimum == d
            # a binary pair's optimal coupling is unique: the closed-form
            # minimal table, its zero cells left out
            lo = min(u, v)
            cells = {(P, P): lo, (P, M): u - lo, (M, P): v - lo, (M, M): min(1 - u, 1 - v)}
            table = dict(witness.weights)
            assert table == {cell: p for cell, p in cells.items() if p}
            for k, c in enumerate(("c1", "c2")):
                probs = marginal(sys_, "q", c).probs
                margin = {o: sum((p for x, p in table.items() if x[k] == o), F(0)) for o in probs}
                assert margin == probs
            assert sum(p for (x, y), p in table.items() if x != y) == d


def test_criterion_7_random_systems_verified():
    with criterion(
        7,
        "200 random systems: support-LP optimum feasible for the full LP and "
        "equal to its two-phase optimum, cnt >= 0, and invariant under "
        "relabeling",
    ):
        rng = random.Random(107)
        for _ in range(200):
            sys_ = rand_system(rng)
            full = full_lp(sys_)
            sup = build_coupling_lp(sys_)
            sol = solve_lp(sup)
            assert verify_solution(sup, sol)
            assert is_solution(full, on_full_lp(full, lp_views(sys_, sup), sol))
            assert len(full.atoms) <= 256
            assert sol.optimum == two_phase_optimum(full)
            report = analyze(sys_)
            assert report.system_delta == sol.optimum
            assert report.cnt >= 0
            assert analyze(relabel(sys_)).cnt == report.cnt


def test_criterion_8_equal_correlations_noncontextual():
    with criterion(
        8,
        "100 random equal-correlation cycles: never contextual, cnt exactly 0",
    ):
        rng = random.Random(108)
        for _ in range(100):
            sys_ = rand_c2_equal_correlation(rng)
            report = analyze(sys_)
            assert report.cnt == 0
            assert not report.contextual
