import random
from fractions import Fraction

import pytest

import cbd.analysis
from cbd import (
    InternalError,
    NotDeterministic,
    analyze,
    analyze_deterministic,
    delta_pairs,
    is_consistently_connected,
    is_deterministic,
    parse_system_text,
    validate_system,
)
from cbd.systems import PairDelta, isolated_deltas
from helpers import (
    M,
    P,
    c2_system,
    four_cycle_name_system,
    lp_path_report,
    order_effect_system,
    pm_registry,
    rand_deterministic,
    rand_system,
    relabel,
    relabel_outcomes,
)
from identity_corpus import corpus, first_inputs, random_systems

F = Fraction


def test_analyze_order_effect():
    report = analyze(order_effect_system())
    assert report.consistent
    assert report.delta_sum == 0
    assert report.system_delta == F(1, 2)
    assert report.cnt == F(1, 2)
    assert report.contextual
    assert not report.deterministic
    assert report.n_variables == 4


def test_analyze_single_context_noncontextual():
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)})],
    )
    report = analyze(sys_)
    assert report.system_delta == 0
    assert report.cnt == 0
    assert not report.contextual
    assert report.pair_deltas == ()


def test_analyze_inconsistent_pair_instance():
    # frozen from the brute-force enumeration oracle
    sys_ = c2_system(F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(0))
    report = analyze(sys_)
    assert not report.consistent
    assert report.delta_sum == F(1, 4)
    assert report.system_delta == F(3, 4)
    assert report.cnt == F(1, 2)
    assert report.contextual


def test_witness_mass_and_support():
    report = analyze(order_effect_system())
    total = sum(w for _, w in report.witness.weights)
    assert total == 1
    assert all(w > 0 for _, w in report.witness.weights)
    assert len(report.witness.variables) == 4


def test_is_deterministic():
    assert is_deterministic(four_cycle_name_system())
    assert not is_deterministic(order_effect_system())
    near = validate_system(
        pm_registry("q1"),
        [("c1", ("q1",), {(P,): F(999, 1000), (M,): F(1, 1000)})],
    )
    assert not is_deterministic(near)


def test_analyze_deterministic_name_system():
    report = analyze_deterministic(four_cycle_name_system())
    assert [pd.delta for pd in report.pair_deltas] == [F(1)] * 4
    assert report.delta_sum == 4
    assert report.system_delta == 4
    assert report.cnt == 0
    assert not report.contextual
    assert report.deterministic
    assert not report.consistent
    # the unique coupling is the fixed values themselves
    assert report.witness.weights[0][1] == 1


def test_analyze_deterministic_all_agree():
    blocks = [
        ("c1", ("q1", "q2"), {(P, P): 1}),
        ("c2", ("q2", "q3"), {(P, P): 1}),
        ("c3", ("q1", "q3"), {(P, P): 1}),
    ]
    report = analyze_deterministic(
        validate_system(pm_registry("q1", "q2", "q3"), blocks)
    )
    assert report.delta_sum == 0
    assert report.system_delta == 0
    assert report.cnt == 0
    assert report.consistent


def test_analyze_deterministic_five_content_shape():
    # overlapping contexts of mixed arity; fixed values chosen arbitrarily
    blocks = [
        ("c1", ("q1", "q2", "q4"), {(P, M, P): 1}),
        ("c2", ("q1", "q3"), {(M, P): 1}),
        ("c3", ("q2", "q3", "q4", "q5"), {(P, P, M, M): 1}),
        ("c4", ("q3", "q5"), {(P, P): 1}),
    ]
    sys_ = validate_system(pm_registry("q1", "q2", "q3", "q4", "q5"), blocks)
    report = analyze_deterministic(sys_)
    assert report.cnt == 0
    assert not report.contextual
    # delta is 1 exactly where the fixed values differ
    expected = {
        ("q1", "c1", "c2"): F(1),
        ("q2", "c1", "c3"): F(1),
        ("q3", "c2", "c3"): F(0),
        ("q3", "c2", "c4"): F(0),
        ("q3", "c3", "c4"): F(0),
        ("q4", "c1", "c3"): F(1),
        ("q5", "c3", "c4"): F(1),
    }
    got = {(pd.content, pd.context_a, pd.context_b): pd.delta
           for pd in report.pair_deltas}
    assert got == expected


def test_analyze_deterministic_rejects_random_tables():
    with pytest.raises(NotDeterministic):
        analyze_deterministic(order_effect_system())


def test_fast_path_matches_lp_path():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        sys_ = rand_deterministic(rng, max_contents=4, max_contexts=4, max_block=2)
        atoms = 1
        for _, q in sys_.variables:
            atoms *= len(sys_.outcomes[q])
        if atoms > 16:
            continue
        fast = analyze(sys_)
        slow = lp_path_report(sys_)
        assert fast == slow
        checked += 1


def _chain(rng, n):
    """An open chain of n point-mass contexts over n + 1 binary contents."""
    contents = [f"q{i:04d}" for i in range(n + 1)]
    blocks = [
        (f"c{i:04d}", (contents[i], contents[i + 1]),
         {(rng.choice((P, M)), rng.choice((P, M))): 1})
        for i in range(n)
    ]
    return validate_system(pm_registry(*contents), blocks)


def _assert_matches_marginal_index(sys_):
    report = analyze(sys_)
    assert report.deterministic
    assert report.pair_deltas == tuple(
        cbd.analysis.PairDelta(*pair) for pair in delta_pairs(sys_)
    )
    consistency = is_consistently_connected(sys_)
    assert list(report.connection_consistent.items()) == list(
        consistency.per_connection.items()
    )
    assert report.consistent == consistency.overall


def test_fixed_values_match_marginal_index_beyond_lp_reach():
    # the LP cannot take these sizes; the isolated side of the general code
    # can, and the fixed values must give the same deltas and consistency
    rng = random.Random(53)
    for _ in range(3):
        _assert_matches_marginal_index(_chain(rng, 1000))
    for _ in range(60):
        _assert_matches_marginal_index(
            rand_deterministic(
                rng, max_contents=30, max_contexts=40, ternary_share=0.4
            )
        )


def test_deterministic_analyze_builds_no_marginal_index():
    for sys_ in (four_cycle_name_system(), _chain(random.Random(59), 1000)):
        report = analyze(sys_)
        assert report.deterministic
        assert "_marginals" not in sys_.__dict__
    sys_ = order_effect_system()
    analyze(sys_)
    assert "_marginals" in sys_.__dict__


def test_report_carries_the_index_records():
    # one pair record: the report and delta_pairs hold the PairDelta objects
    # the marginal index built, which still compare equal to plain tuples
    assert cbd.PairDelta is cbd.analysis.PairDelta is PairDelta
    (chain,) = first_inputs("chain-det", 1)
    systems = corpus()["liar"]() + random_systems()[:50] + [
        four_cycle_name_system(), parse_system_text(chain.data.text)
    ]
    lp_systems = 0
    for sys_ in systems:
        report = analyze(sys_)
        records = isolated_deltas(sys_).pairs
        assert all(type(pd) is PairDelta for pd in report.pair_deltas)
        if not report.deterministic:
            lp_systems += 1
            assert all(
                a is b for a, b in zip(report.pair_deltas, records, strict=True)
            )
        plain = [
            (q, ca, cb, pd.delta)
            for (q, ca, cb), pd in zip(sys_.pairs(), records, strict=True)
        ]
        pairs = delta_pairs(sys_)
        assert pairs == plain and pairs == list(report.pair_deltas)
        assert all(a is b for a, b in zip(pairs, records))
    assert 50 <= lp_systems <= len(systems) - 2


def test_relabeling_preserves_cnt():
    rng = random.Random(43)
    for _ in range(5):
        sys_ = rand_system(rng, max_atoms=64)
        a = analyze(sys_)
        b = analyze(relabel(sys_))
        assert a.cnt == b.cnt
        assert a.contextual == b.contextual
    fixed = analyze(order_effect_system())
    moved = analyze(relabel(order_effect_system()))
    assert fixed.cnt == moved.cnt


def test_outcome_relabeling_preserves_the_report():
    rng = random.Random(7)
    for _ in range(100):
        sys_ = rand_system(rng, ternary_share=0.3, max_atoms=512)
        q = rng.choice(sys_.content_ids)
        labels = sys_.outcomes[q]
        moved = relabel_outcomes(sys_, q, dict(zip(labels, labels[1:] + labels[:1])))
        a, b = analyze(sys_), analyze(moved)
        assert a.delta_sum == b.delta_sum and a.system_delta == b.system_delta
        assert a.cnt == b.cnt
        assert a.pair_deltas == b.pair_deltas
        assert a.connection_consistent == b.connection_consistent
        assert a.consistent == b.consistent


def test_analyze_validates_the_cap_on_every_path():
    for sys_ in (four_cycle_name_system(), order_effect_system()):
        for cap in (0, -5):
            with pytest.raises(ValueError, match="positive"):
                analyze(sys_, atom_cap=cap)
    assert analyze(four_cycle_name_system(), atom_cap=1).cnt == 0


def test_negative_cnt_is_an_internal_error(monkeypatch):
    sys_ = order_effect_system()
    _, witness = cbd.analysis.system_delta(sys_)
    monkeypatch.setattr(
        cbd.analysis, "system_delta", lambda system, atom_cap=None: (F(-1), witness)
    )
    with pytest.raises(InternalError):
        analyze(sys_)
