import itertools
import random
import time
from fractions import Fraction

import pytest

from cbd import systems
from cbd import (
    DomainMismatch,
    DuplicateContentInContext,
    DuplicateContext,
    EmptySystem,
    InvalidProbability,
    ProbabilitySumMismatch,
    UnknownContent,
    VariableNotInContext,
    analyze,
    is_consistently_connected,
    marginal,
    to_fraction,
    validate_system,
)
from cbd.systems import marginal_forms
from helpers import (
    M,
    P,
    fold_exact,
    four_cycle_name_system,
    order_effect_system,
    pm_registry,
    rand_deterministic,
    rand_system,
)

F = Fraction


def test_validate_order_effect_pair():
    sys_ = order_effect_system()
    assert len(sys_.blocks) == 2
    assert sys_.content_ids == ("q1", "q2")
    assert len(sys_.variables) == 4
    assert sys_.variables == (("c1", "q1"), ("c1", "q2"), ("c2", "q1"), ("c2", "q2"))


def test_validate_degenerate_single_variable():
    sys_ = validate_system(
        {"q1": ("+1", "-1")}, [("c1", ("q1",), {("+1",): 1})]
    )
    assert sys_.blocks[0].table == {(P,): F(1)}


def test_validate_drops_zero_cells():
    sys_ = validate_system(
        pm_registry("q1"),
        [("c1", ("q1",), {(P,): "1", (M,): "0"})],
    )
    assert (M,) not in sys_.blocks[0].table
    assert sys_.blocks[0].prob((M,)) == 0


def test_probability_sum_mismatch_names_context_and_sum():
    with pytest.raises(ProbabilitySumMismatch) as info:
        validate_system(
            pm_registry("q1"),
            [("c1", ("q1",), {(P,): F(1, 2), (M,): F(2, 5)})],
        )
    assert info.value.context == "c1"
    assert info.value.total == F(9, 10)
    assert "9/10" in str(info.value)


def test_probability_sum_mismatch_with_too_many_digits_to_print():
    x, y = F(1, 2**14000), F(1, 3**8800)
    with pytest.raises(ProbabilitySumMismatch) as info:
        validate_system({"q": ("x", "y")}, [("c", ("q",), {("x",): x, ("y",): y})])
    assert info.value.context == "c"
    assert info.value.total == x + y
    # printed in full, as the count in CapExceeded's message is
    total, _, tail = str(info.value).removeprefix(
        "distribution of context 'c' sums to "
    ).partition(", ")
    assert tail == "expected 1"
    assert fold_exact(total) == x + y


def test_duplicate_content_in_context():
    with pytest.raises(DuplicateContentInContext):
        validate_system(
            pm_registry("q1"),
            [("c1", ("q1", "q1"), {(P, P): 1})],
        )


def test_unknown_content():
    with pytest.raises(UnknownContent):
        validate_system(pm_registry("q1"), [("c1", ("q2",), {(P,): 1})])


def test_unhashable_content_in_a_context():
    with pytest.raises(DomainMismatch, match="context 'c'"):
        validate_system({"q": ("a", "b")}, [("c", (["q"],), {("a",): 1})])


def test_empty_system():
    with pytest.raises(EmptySystem):
        validate_system(pm_registry("q1"), [])


def test_duplicate_context():
    blocks = [
        ("c1", ("q1",), {(P,): 1}),
        ("c1", ("q1",), {(P,): 1}),
    ]
    with pytest.raises(DuplicateContext):
        validate_system(pm_registry("q1"), blocks)


def test_bad_arity_and_alien_outcome():
    with pytest.raises(DomainMismatch):
        validate_system(pm_registry("q1"), [("c1", ("q1",), {(P, P): 1})])
    with pytest.raises(DomainMismatch):
        validate_system(pm_registry("q1"), [("c1", ("q1",), {("0",): 1})])


def test_cell_listed_twice_is_refused_with_zero_cells_too():
    # the string key 'ab' and the tuple ('a', 'b') name one cell; a zero
    # probability on either copy must not hide the repeat
    registry = {"q": ("a", "b"), "r": ("a", "b")}
    for table in (
        {("a", "b"): "0", "ab": "1/2", ("b", "b"): "1/2"},
        {("a", "b"): "1/2", "ab": "0", ("b", "b"): "1/2"},
    ):
        with pytest.raises(DomainMismatch, match=r"\('a', 'b'\) listed twice"):
            validate_system(registry, [("c", ("q", "r"), table)])


@pytest.mark.parametrize(
    "registry, context",
    [
        pytest.param({"q1": (0, 1)}, "c1", id="outcome-labels"),
        pytest.param({1: ("0", "1")}, "c1", id="content-id"),
        pytest.param({"q1": ("0", "1")}, 7, id="context-id"),
    ],
)
def test_labels_must_be_strings(registry, context):
    # later code joins labels into strings (LP row labels, witness text) and
    # the file format holds strings only, so the gate refuses anything else
    (q, outs), = registry.items()
    with pytest.raises(DomainMismatch, match="string"):
        validate_system(registry, [(context, (q,), {(o,): F(1, 2) for o in outs})])


@pytest.mark.parametrize(
    "registry, context, contents, match",
    [
        pytest.param({"": ("a", "b")}, "c", ("",), "content ''", id="content-id"),
        pytest.param({"q": ("", "b")}, "c", ("q",), "content 'q'", id="outcome-label"),
        pytest.param({"q": ("a", "b")}, "", ("q",), "context id ''", id="context-id"),
    ],
)
def test_labels_must_be_non_empty(registry, context, contents, match):
    # the file schema gives every id and label minLength 1, so a system that
    # passed with an empty one would write a file its own schema refuses
    (q, outs), = registry.items()
    table = {(outs[1],): F(1)}
    with pytest.raises(DomainMismatch, match=f"{match}.*non-empty"):
        validate_system(registry, [(context, contents, table)])


def test_outcome_set_must_not_be_one_string():
    # tuple('+1') would be the outcomes ('+', '1')
    with pytest.raises(DomainMismatch, match="content 'q': outcome set '\\+1'"):
        validate_system({"q": "+1"}, [("c", ("q",), {("+",): F(1)})])


def test_context_contents_must_not_be_one_string():
    # tuple('q') would be the contents ('q',)
    with pytest.raises(DomainMismatch, match="context 'c': contents 'q'"):
        validate_system(pm_registry("q"), [("c", "q", {(P,): F(1)})])


def test_outcome_set_needs_two_values():
    with pytest.raises(DomainMismatch):
        validate_system({"q1": ("+1",)}, [("c1", ("q1",), {(P,): 1})])
    # two labels, but one outcome listed twice
    with pytest.raises(DomainMismatch, match="duplicate outcomes"):
        validate_system({"q1": (P, P)}, [("c1", ("q1",), {(P,): 1})])


def test_context_needs_a_content():
    with pytest.raises(DomainMismatch, match="'c1' lists no contents"):
        validate_system(pm_registry("q1"), [("c1", (), {(): 1})])


def test_float_probability_rejected():
    with pytest.raises(InvalidProbability):
        validate_system(pm_registry("q1"), [("c1", ("q1",), {(P,): 0.5, (M,): 0.5})])


def test_to_fraction_forms():
    assert to_fraction("3/4") == F(3, 4)
    assert to_fraction("0.25") == F(1, 4)
    assert to_fraction(1) == F(1)
    assert to_fraction(F(1, 3)) == F(1, 3)
    with pytest.raises(InvalidProbability):
        to_fraction("5/4")
    with pytest.raises(InvalidProbability):
        to_fraction("x")


def test_to_fraction_rejects_booleans():
    for value in (True, False):
        with pytest.raises(InvalidProbability):
            to_fraction(value)


def test_to_fraction_refuses_huge_exponents_quickly():
    assert to_fraction("5e-4300") == F(5, 10**4300)
    start = time.perf_counter()
    for text in ("1e-3000000", "1e-10000000", "1E+4301", "0.5e-4_301"):
        with pytest.raises(InvalidProbability, match="exponent"):
            to_fraction(text)
    assert time.perf_counter() - start < 0.5


def test_to_fraction_refuses_values_too_long_to_print():
    for text in ("1e-4300", "0.5e-4300", "1e4300"):
        with pytest.raises(InvalidProbability, match="digits"):
            to_fraction(text)
    inside = to_fraction("1e-4299")
    assert inside == F(1, 10**4299)
    assert len(str(inside)) == 2 + 4300


def _point_mass_chain(n, probs):
    """n contexts over contents q0..qn, context i holding (q_i, q_i+1) with
    the probabilities of probs(i), listed for the four cells in order."""
    contents = [f"q{i}" for i in range(n + 1)]
    cells = list(itertools.product((P, M), repeat=2))
    blocks = [
        (f"c{i}", (contents[i], contents[i + 1]), dict(zip(cells, probs(i))))
        for i in range(n)
    ]
    return pm_registry(*contents), blocks


def test_validate_parses_each_distinct_string_once(monkeypatch):
    calls = []
    original = systems.to_fraction

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(systems, "to_fraction", counted)
    rng = random.Random(3)

    def point_mass(i):
        probs = ["0", "0", "0", "0"]
        probs[rng.randrange(4)] = "1"
        return probs

    sys_ = validate_system(*_point_mass_chain(1000, point_mass))
    assert sorted(calls) == ["0", "1"]
    assert len(sys_.blocks) == 1000

    # the memo holds strings only: True equals 1 but is still refused, and
    # ints and Fractions go through to_fraction every time
    calls.clear()
    probs = [["1", "0", "0", "0"], [True, 0, 0, 0]]
    with pytest.raises(InvalidProbability, match="unsupported probability type bool"):
        validate_system(*_point_mass_chain(2, probs.__getitem__))
    assert calls == ["1", "0", True]
    calls.clear()
    probs = [[F(1), 0, 0, 0], [1, F(0), 0, 0], [0, 0, "1", 0]]
    validate_system(*_point_mass_chain(3, probs.__getitem__))
    assert calls == [F(1), 0, 0, 0, 1, F(0), 0, 0, 0, 0, "1", 0]

    # a bad string raises where it first occurs; the next call parses anew
    calls.clear()
    probs = [["1", "0", "0", "0"], ["x", "1", "0", "0"], ["x", "1", "0", "0"]]
    with pytest.raises(InvalidProbability, match="cannot parse probability 'x'"):
        validate_system(*_point_mass_chain(3, probs.__getitem__))
    assert calls == ["1", "0", "x"]
    calls.clear()
    validate_system(*_point_mass_chain(1, lambda i: ["1", "0", "0", "0"]))
    assert calls == ["1", "0"]


def test_marginal_order_effect():
    sys_ = order_effect_system()
    m = marginal(sys_, "q1", "c1")
    assert m.probs == {P: F(1, 4), M: F(3, 4)}
    m2 = marginal(sys_, "q2", "c1")
    assert m2.probs == {P: F(1, 2), M: F(1, 2)}
    # the two contexts carry the same marginals by construction
    assert marginal(sys_, "q1", "c2").probs == m.probs
    assert marginal(sys_, "q2", "c2").probs == m2.probs


def test_marginal_single_variable_is_the_distribution():
    sys_ = validate_system(
        pm_registry("q1"), [("c1", ("q1",), {(P,): F(1, 3), (M,): F(2, 3)})]
    )
    assert marginal(sys_, "q1", "c1").probs == {P: F(1, 3), M: F(2, 3)}


def test_marginal_not_in_context():
    sys_ = order_effect_system()
    with pytest.raises(VariableNotInContext):
        marginal(sys_, "q3", "c1")


def test_marginal_stable_under_content_permutation():
    table = {(P, P): F(1, 6), (P, M): F(1, 3), (M, P): F(1, 4), (M, M): F(1, 4)}
    flipped = {(b, a): p for (a, b), p in table.items()}
    s1 = validate_system(pm_registry("q1", "q2"), [("c1", ("q1", "q2"), table)])
    s2 = validate_system(pm_registry("q1", "q2"), [("c1", ("q2", "q1"), flipped)])
    for q in ("q1", "q2"):
        assert marginal(s1, q, "c1").probs == marginal(s2, q, "c1").probs


def test_connections_pair_system():
    sys_ = order_effect_system()
    assert sys_.content_ids == ("q1", "q2")
    assert all(len(sys_.contexts_of(q)) == 2 for q in sys_.content_ids)
    assert sys_.contexts_of("q1") == ("c1", "c2")


def test_connections_singleton():
    sys_ = validate_system(
        pm_registry("q1", "q2", "q3"),
        [
            ("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)}),
            ("c2", ("q1", "q3"), {(P, P): F(1, 2), (M, M): F(1, 2)}),
        ],
    )
    assert len(sys_.contexts_of("q1")) == 2
    assert len(sys_.contexts_of("q2")) == 1
    assert len(sys_.contexts_of("q3")) == 1


def test_connections_four_cycle():
    sys_ = four_cycle_name_system()
    assert len(sys_.content_ids) == 4
    assert all(len(sys_.contexts_of(q)) == 2 for q in sys_.content_ids)


def test_consistency_order_effect():
    res = is_consistently_connected(order_effect_system())
    assert res.overall
    assert res.per_connection == {"q1": True, "q2": True}


def test_consistency_detects_marginal_shift():
    # same correlation pattern, but q1's margin moves from 1/2 to 1/3
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [
            ("c1", ("q1", "q2"),
             {(P, P): F(1, 4), (P, M): F(1, 4), (M, P): F(1, 4), (M, M): F(1, 4)}),
            ("c2", ("q1", "q2"),
             {(P, P): F(1, 6), (P, M): F(1, 6), (M, P): F(1, 3), (M, M): F(1, 3)}),
        ],
    )
    res = is_consistently_connected(sys_)
    assert not res.per_connection["q1"]
    assert res.per_connection["q2"]
    assert not res.overall


def test_consistency_name_system_inconsistent():
    res = is_consistently_connected(four_cycle_name_system())
    assert not res.overall
    assert not any(res.per_connection.values())


def nested_pairs(system):
    """The pair enumeration without the index: scan the blocks per content."""
    contents = sorted({q for blk in system.blocks for q in blk.contents})
    return [
        (q, ca, cb)
        for q in contents
        for ca, cb in itertools.combinations(
            [blk.context for blk in system.blocks if q in blk.contents], 2
        )
    ]


def test_pairs_match_nested_enumeration():
    rng = random.Random(61)
    for _ in range(100):
        sys_ = rand_system(rng, max_contents=5, max_contexts=6, max_block=3)
        assert sys_.pairs() == nested_pairs(sys_)
    for _ in range(100):
        sys_ = rand_deterministic(rng, max_contents=6, max_contexts=8)
        assert sys_.pairs() == nested_pairs(sys_)


def test_pairs_skip_single_context_contents():
    sys_ = validate_system(
        pm_registry("q1", "q2", "q3"),
        [
            ("c1", ("q1", "q2"), {(P, P): F(1)}),
            ("c2", ("q3",), {(M,): F(1)}),
        ],
    )
    assert sys_.pairs() == []
    assert order_effect_system().pairs() == [("q1", "c1", "c2"), ("q2", "c1", "c2")]


def test_index_lookups_of_unknown_names():
    sys_ = order_effect_system()
    with pytest.raises(KeyError):
        sys_.block("nope")
    assert sys_.contexts_of("nope") == ()


def test_index_is_not_part_of_equality_or_repr():
    indexed = order_effect_system()
    fresh = order_effect_system()
    indexed.pairs()
    indexed.block("c1")
    assert indexed.content_ids == ("q1", "q2")
    assert indexed == fresh
    assert repr(indexed) == repr(fresh)


def _count_marginals(monkeypatch):
    built = []

    class CountedMarginal(systems.Marginal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.context, self.content))

    monkeypatch.setattr(systems, "Marginal", CountedMarginal)
    return built


def test_analyze_computes_each_marginal_once(monkeypatch):
    # the LP path reads every variable's marginal form from the index, built
    # once in one pass over each context table, and the isolated deltas,
    # summed once over their common denominator
    sys_ = order_effect_system()
    tables = []
    real_to_form = systems.to_form

    def counted_to_form(values):
        tables.append(values)
        return real_to_form(values)

    monkeypatch.setattr(systems, "to_form", counted_to_form)
    analyze(sys_)
    analyze(sys_)
    assert len(tables) == len(sys_.blocks) + 1
    assert sorted(marginal_forms(sys_)) == sorted(sys_.variables)
    assert len(tables) == len(sys_.blocks) + 1


def test_analyze_deterministic_computes_no_marginal(monkeypatch):
    # a deterministic system is reported from its fixed values, and the LP
    # path reads only the integer forms of the marginal index
    built = _count_marginals(monkeypatch)
    for sys_ in (four_cycle_name_system(), order_effect_system()):
        analyze(sys_)
    assert built == []


def test_marginal_index_is_not_part_of_equality_or_repr():
    indexed = order_effect_system()
    fresh = order_effect_system()
    assert marginal(indexed, "q1", "c1") == marginal(indexed, "q1", "c1")
    assert marginal_forms(indexed) is marginal_forms(indexed)
    assert indexed == fresh
    assert repr(indexed) == repr(fresh)
    with pytest.raises(VariableNotInContext):
        marginal(indexed, "q1", "nope")
