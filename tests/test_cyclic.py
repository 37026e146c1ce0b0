import random
from fractions import Fraction

import pytest

import cbd.cyclic
from cbd import (
    NotCyclic,
    NotPlusMinusOne,
    analyze,
    build_coupling_lp,
    cyclic_criterion,
    delta_pairs,
    detect_cyclic,
    enumerate_variants,
    liar_system,
    solve_lp,
    uniform_mixture,
    validate_system,
    verify_solution,
)
from helpers import (
    M,
    P,
    SIGN,
    c2_system,
    cycle_system,
    four_cycle_name_system,
    kd_closed_form_cnt,
    kd_mean,
    lp_cnt,
    order_effect_system,
    pm_registry,
    rand_c2,
    rand_c2_consistent,
    rand_c2_equal_correlation,
    rank_n_cycle_weights,
    relabel_outcomes,
    without_bound,
)

F = Fraction


def liar_mixture(n):
    spec = liar_system(n)
    return uniform_mixture(spec, enumerate_variants(spec))


def test_detect_rank2():
    structure = detect_cyclic(order_effect_system())
    assert structure is not None
    assert structure.rank == 2
    assert structure.cycle == (("c1", "q1", "q2"), ("c2", "q2", "q1"))


def test_detect_rank4():
    structure = detect_cyclic(four_cycle_name_system())
    assert structure is not None
    assert structure.rank == 4
    assert structure.cycle[0][0] == "c1"
    # the walk visits every context once and returns home
    assert sorted(c for c, _, _ in structure.cycle) == ["c1", "c2", "c3", "c4"]
    for (_, _, out), (_, nxt_in, _) in zip(
        structure.cycle, structure.cycle[1:] + structure.cycle[:1]
    ):
        assert out == nxt_in


def test_detect_rejects_mixed_arity():
    blocks = [
        ("c1", ("q1", "q2", "q4"), {(P, M, P): 1}),
        ("c2", ("q1", "q3"), {(M, P): 1}),
        ("c3", ("q2", "q3", "q4", "q5"), {(P, P, M, M): 1}),
        ("c4", ("q3", "q5"), {(P, P): 1}),
    ]
    sys_ = validate_system(pm_registry("q1", "q2", "q3", "q4", "q5"), blocks)
    assert detect_cyclic(sys_) is None


def test_detect_rejects_single_context():
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)})],
    )
    assert detect_cyclic(sys_) is None


def test_detect_rejects_disjoint_rings():
    half = F(1, 2)
    table = {(P, P): half, (M, M): half}
    blocks = [
        ("c1", ("q1", "q2"), dict(table)),
        ("c2", ("q1", "q2"), dict(table)),
        ("c3", ("q3", "q4"), dict(table)),
        ("c4", ("q3", "q4"), dict(table)),
    ]
    sys_ = validate_system(pm_registry("q1", "q2", "q3", "q4"), blocks)
    assert detect_cyclic(sys_) is None


def test_detect_rejects_content_in_three_contexts():
    half = F(1, 2)
    table = {(P, P): half, (M, M): half}
    blocks = [
        ("c1", ("q1", "q2"), dict(table)),
        ("c2", ("q2", "q1"), dict(table)),
        ("c3", ("q1", "q2"), dict(table)),
    ]
    sys_ = validate_system(pm_registry("q1", "q2"), blocks)
    assert detect_cyclic(sys_) is None


def test_criterion_order_effect():
    verdict = cyclic_criterion(order_effect_system())
    assert verdict.lhs == 1
    assert verdict.rhs == 0
    assert verdict.margin == 1
    assert verdict.contextual


def test_criterion_liar_pair():
    verdict = cyclic_criterion(liar_mixture(2))
    assert verdict.lhs == 2
    assert verdict.rhs == 0
    assert verdict.contextual


def test_criterion_equal_correlations_noncontextual():
    sys_ = c2_system(F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1, 2), F(1, 4))
    verdict = cyclic_criterion(sys_)
    assert verdict.lhs == 0
    assert not verdict.contextual


def test_criterion_covers_every_ring():
    verdict = cyclic_criterion(liar_mixture(3))
    assert (verdict.lhs, verdict.rhs, verdict.cnt) == (3, 1, 1)
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)})],
    )
    with pytest.raises(NotCyclic):
        cyclic_criterion(sys_)


def test_liar_rings_in_closed_form():
    # no LP: the criterion reads the ring's products and connections only
    for n in range(2, 61):
        spec = liar_system(n)
        verdict = cyclic_criterion(
            uniform_mixture(spec, enumerate_variants(spec))
        )
        assert (verdict.lhs, verdict.rhs) == (n, n - 2)
        assert verdict.margin == 2 and verdict.cnt == 1 and verdict.contextual


def test_criterion_needs_plus_minus_one():
    tern = ("x", "y")
    sys_ = validate_system(
        {"q1": tern, "q2": tern},
        [
            ("c1", ("q1", "q2"), {("x", "x"): F(1, 2), ("y", "y"): F(1, 2)}),
            ("c2", ("q1", "q2"), {("x", "x"): F(1, 2), ("y", "y"): F(1, 2)}),
        ],
    )
    with pytest.raises(NotPlusMinusOne):
        cyclic_criterion(sys_)


def _ring_over(labels):
    """A point-mass ring c1 = (q1, q2), ..., cn = (qn, q1), content q_i over
    labels[i - 1]."""
    n = len(labels)
    outcomes = {f"q{i + 1}": outs for i, outs in enumerate(labels)}
    blocks = []
    for i in range(n):
        a, b = f"q{i + 1}", f"q{(i + 1) % n + 1}"
        blocks.append((f"c{i + 1}", (a, b), {(outcomes[a][0], outcomes[b][0]): 1}))
    return validate_system(outcomes, blocks)


def test_criterion_checks_each_outcome_tuple_once(monkeypatch):
    # five contents share one '+1'/'-1' tuple: it is checked once
    calls = []
    real = cbd.cyclic.check_plus_minus_one

    def counted(what, outcomes):
        calls.append(what)
        real(what, outcomes)

    monkeypatch.setattr(cbd.cyclic, "check_plus_minus_one", counted)
    cyclic_criterion(_ring_over([(P, M)] * 5))
    assert len(calls) == 1


def test_criterion_names_the_first_content_off_plus_minus_one():
    # q2 and q4 share a tuple other than '+1'/'-1', and q3 has another: the
    # refusal names whichever bad content the canonical cycle meets first
    xy, uv = ("x", "y"), ("u", "v")
    sys_ = _ring_over([(P, M), xy, uv, xy, (M, P)])
    cycle = [q for _, q, _ in detect_cyclic(sys_).cycle]
    first_bad = next(q for q in cycle if set(sys_.outcomes[q]) != {P, M})
    assert first_bad in ("q2", "q3", "q4")
    with pytest.raises(NotPlusMinusOne, match=f"^content '{first_bad}' needs"):
        cyclic_criterion(sys_)


def test_criterion_agrees_with_lp():
    rng = random.Random(53)
    for _ in range(30):
        sys_ = rand_c2(rng)
        verdict = cyclic_criterion(sys_)
        report = analyze(sys_)
        assert verdict.contextual == report.contextual
        assert verdict.cnt == lp_cnt(sys_)


def test_cnt_is_half_margin_when_consistent():
    rng = random.Random(59)
    for _ in range(20):
        sys_ = rand_c2_consistent(rng)
        verdict = cyclic_criterion(sys_)
        report = analyze(sys_)
        expected = max(F(0), verdict.margin) / 2
        assert report.cnt == expected
        assert lp_cnt(sys_) == expected


def test_equal_correlation_systems_never_contextual():
    rng = random.Random(61)
    for _ in range(20):
        sys_ = rand_c2_equal_correlation(rng)
        verdict = cyclic_criterion(sys_)
        assert not verdict.contextual and verdict.cnt == 0
        assert analyze(sys_).cnt == 0
        assert lp_cnt(sys_) == 0


@pytest.mark.parametrize(
    "n, seed, count, contextual_range",
    [
        # contextual verdicts with these seeds: rank 3, 10 of 20; rank 4,
        # 9 of 20; rank 5, 1 of 8; rank 6 (4,096 atoms), 1 of 2; rank 7
        # (16,384 atoms), 1 of 2 (biased cycles of rank 5 and above are
        # rarely contextual; seeds 93 and 2115 give one)
        pytest.param(3, 33, 20, (10, 10), id="rank3"),
        pytest.param(4, 44, 20, (5, 10), id="rank4"),
        pytest.param(5, 55, 8, (1, 1), id="rank5"),
        pytest.param(6, 93, 2, (1, 1), id="rank6"),
        pytest.param(7, 2115, 2, (1, 1), id="rank7"),
    ],
)
def test_cycles_match_closed_form(n, seed, count, contextual_range):
    rng = random.Random(seed)
    contextual = 0
    for k in range(count):
        contexts = rank_n_cycle_weights(rng, n, biased=k % 2 == 1)
        sys_ = cycle_system(n, contexts)
        assert detect_cyclic(sys_).rank == n
        # solved to the end: lp.bound is the closed form under test
        lp = without_bound(build_coupling_lp(sys_))
        sol = solve_lp(lp)
        assert verify_solution(lp, sol)
        cnt = sol.optimum - sum(d for *_, d in delta_pairs(sys_))
        assert cnt == kd_closed_form_cnt(contexts)
        assert cnt == cyclic_criterion(sys_).cnt
        contextual += cnt > 0
    lo, hi = contextual_range
    assert lo <= contextual <= hi


def test_outcome_relabeling_keeps_the_criterion():
    # swapping '+1'/'-1' on one content flips the two products through it,
    # keeping the parity of negative products, and leaves every mean gap
    def product(x, y):
        return SIGN[x] * SIGN[y]

    rng = random.Random(71)
    for n in (3, 4):
        for k in range(10):
            sys_ = cycle_system(n, rank_n_cycle_weights(rng, n, biased=k % 2 == 1))
            q = f"q{rng.randint(1, n)}"
            flipped = relabel_outcomes(sys_, q, {P: M, M: P})
            for c, a, b in detect_cyclic(sys_).cycle:
                sign = -1 if q in (a, b) else 1
                before = kd_mean(sys_.block(c).table, product)
                assert kd_mean(flipped.block(c).table, product) == sign * before
            assert cyclic_criterion(flipped) == cyclic_criterion(sys_)
