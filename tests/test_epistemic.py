import decimal
import io
import itertools
import random
import time
from collections.abc import Sequence
from fractions import Fraction

import pytest

from cbd import (
    MINUS,
    PLUS,
    ContextConstraint,
    DomainMismatch,
    DuplicateContentInContext,
    DuplicateContext,
    EmptyVariantSet,
    EpistemicContext,
    EpistemicSpec,
    InvalidProbability,
    NotPlusMinusOne,
    UnknownContent,
    analyze,
    enumerate_variants,
    is_consistently_connected,
    is_deterministic,
    liar_system,
    uniform_mixture,
    write_system,
)
from cbd.oracle import enumerate_min
from helpers import fold_exact, full_lp

F = Fraction


def liar_mixture(n):
    spec = liar_system(n)
    return uniform_mixture(spec, enumerate_variants(spec))


def test_liar_structure():
    spec = liar_system(4)
    assert spec.outcomes == {f"q{i}": (PLUS, MINUS) for i in range(1, 5)}
    assert tuple(ctx.context for ctx in spec.contexts) == ("c1", "c2", "c3", "c4")
    assert spec.contexts[0].contents == ("q1", "q2")
    assert spec.contexts[2].contents == ("q3", "q4")
    assert spec.contexts[3].contents == ("q4", "q1")
    for ctx in spec.contexts[:3]:
        assert ctx.constraint.kind == "equal"
    assert spec.contexts[3].constraint.kind == "unequal"


def test_liar_pair_labels():
    spec = liar_system(2)
    assert tuple(ctx.context for ctx in spec.contexts) == (
        "c1:q1->q2",
        "c2:q2->q1",
    )
    assert spec.contexts[0].contents == ("q1", "q2")
    assert spec.contexts[1].contents == ("q2", "q1")
    assert spec.contexts[0].constraint.kind == "equal"
    assert spec.contexts[1].constraint.kind == "unequal"


def test_liar_rejects_short_chains():
    with pytest.raises(ValueError):
        liar_system(1)
    with pytest.raises(ValueError):
        liar_system(0)


def test_variant_counts():
    # contexts constrain only their own variables, so choices multiply:
    # each of the n contexts picks one of its 2 admissible rows
    assert len(enumerate_variants(liar_system(2))) == 4
    assert len(enumerate_variants(liar_system(3))) == 8
    assert len(enumerate_variants(liar_system(4))) == 16


def test_single_equality_context_has_two_variants():
    spec = EpistemicSpec(
        outcomes={"q1": (PLUS, MINUS), "q2": (PLUS, MINUS)},
        contexts=(
            EpistemicContext("c1", ("q1", "q2"), ContextConstraint.equal()),
        ),
    )
    variants = enumerate_variants(spec)
    assert len(variants) == 2
    rows = {
        (v.assignment[("q1", "c1")], v.assignment[("q2", "c1")]) for v in variants
    }
    assert rows == {(PLUS, PLUS), (MINUS, MINUS)}


def test_variants_satisfy_constraints():
    spec = liar_system(3)
    for variant in enumerate_variants(spec):
        for ctx in spec.contexts:
            row = tuple(variant.assignment[(q, ctx.context)] for q in ctx.contents)
            if ctx.constraint.kind == "equal":
                assert row[0] == row[1]
            else:
                assert row[0] != row[1]


def test_variants_are_distinct_and_deterministic():
    spec = liar_system(4)
    variants = enumerate_variants(spec)
    assert len({tuple(sorted(v.assignment.items())) for v in variants}) == len(variants)
    for variant in variants:
        mixture = uniform_mixture(spec, (variant,))
        assert is_deterministic(mixture)


def test_empty_variant_set():
    spec = EpistemicSpec(
        outcomes={"q1": (PLUS, MINUS)},
        contexts=(
            EpistemicContext("c1", ("q1",), ContextConstraint.explicit(())),
            EpistemicContext("c2", ("q1",), ContextConstraint.explicit(((PLUS,),))),
        ),
    )
    with pytest.raises(EmptyVariantSet):
        enumerate_variants(spec)


def test_variant_cap():
    # no cap applies to the variants: only each context's admissible tuples
    # are built, so Liar 12's 4^12 assignments, over the default atom cap,
    # are never counted, and the cap keyword is gone
    with pytest.raises(TypeError):
        enumerate_variants(liar_system(2), cap=1)
    view = enumerate_variants(liar_system(12))
    assert len(view) == 2**12
    assert [len(tuples) for _, tuples in view.contexts] == [2] * 12


def test_variant_cap_refuses_a_count_beyond_the_digit_limit():
    # 2^15000 variants, a count of 4,516 digits: no cap refuses them, each of
    # the 15,000 contexts holds its 2 tuples, and any variant decodes
    view = enumerate_variants(liar_system(15000))
    assert [len(tuples) for _, tuples in view.contexts] == [2] * 15000
    last = view[2**15000 - 1].assignment
    assert view[-1].assignment == last
    assert last[("q1", "c1")] == MINUS and last[("q1", "c15000")] == PLUS
    with pytest.raises(IndexError):
        view[2**15000]


def test_a_variant_product_past_maxsize_is_true_but_has_no_len():
    # 2^63 and 2^70 variants: as for range, len() stops at sys.maxsize, but
    # a product is never empty, so bool() answers without it
    for n in (63, 70):
        view = enumerate_variants(liar_system(n))
        assert bool(view) is True
        assert view[-1].assignment == view[2**n - 1].assignment
        assert view[-1].assignment[("q1", "c1")] == MINUS
        with pytest.raises(OverflowError):
            len(view)


def _spec(*contexts):
    return EpistemicSpec(
        outcomes={"q1": (PLUS, MINUS), "q2": (PLUS, MINUS)},
        contexts=tuple(
            EpistemicContext(c, qs, ContextConstraint.explicit(allowed))
            for c, qs, allowed in contexts
        ),
    )


def test_variants_refuse_a_content_listed_twice():
    # one variable cannot take '+1' and '-1' at once: no variant may come back
    spec = _spec(("c1", ("q1", "q1"), [(PLUS, MINUS)]))
    with pytest.raises(DuplicateContentInContext, match="'q1' appears twice"):
        enumerate_variants(spec)


def test_variants_refuse_an_unknown_content():
    spec = _spec(("c1", ("q1", "q9"), [(PLUS, PLUS)]))
    with pytest.raises(UnknownContent, match="unknown content 'q9'"):
        enumerate_variants(spec)


def test_variants_refuse_a_context_defined_twice():
    spec = _spec(
        ("c1", ("q1", "q2"), [(PLUS, PLUS)]), ("c1", ("q2",), [(MINUS,)])
    )
    with pytest.raises(DuplicateContext, match="'c1' defined twice"):
        enumerate_variants(spec)


def test_variants_refuse_an_allowed_tuple_of_the_wrong_arity():
    spec = _spec(("c1", ("q1", "q2"), [(PLUS,)]))
    with pytest.raises(DomainMismatch, match="context 'c1'"):
        enumerate_variants(spec)


def test_variants_refuse_an_allowed_outcome_outside_the_outcome_set():
    spec = _spec(("c1", ("q1", "q2"), [(PLUS, "0")]))
    with pytest.raises(DomainMismatch, match="context 'c1'.*'0'"):
        enumerate_variants(spec)


def _binary_spec(outcomes, contents, constraint):
    return EpistemicSpec(
        outcomes={q: outcomes for q in contents},
        contexts=(EpistemicContext("c1", contents, constraint),),
    )


def test_variants_refuse_equal_over_three_contents():
    spec = _binary_spec((PLUS, MINUS), ("q1", "q2", "q3"), ContextConstraint.equal())
    with pytest.raises(DomainMismatch, match="exactly 2 contents"):
        enumerate_variants(spec)


def test_variants_refuse_unequal_over_other_outcomes():
    spec = _binary_spec(("yes", "no"), ("q1", "q2"), ContextConstraint.unequal())
    with pytest.raises(NotPlusMinusOne, match="'\\+1'/'-1'"):
        enumerate_variants(spec)


def test_variants_refuse_an_unknown_constraint_kind():
    spec = _binary_spec((PLUS, MINUS), ("q1", "q2"), ContextConstraint(kind="often"))
    with pytest.raises(DomainMismatch, match="unknown constraint kind 'often'"):
        enumerate_variants(spec)


def test_variants_refuse_malformed_specs_before_the_cap():
    # every context's structure is checked before any allowed tuple is read:
    # c2's repeated content is refused, not c1's outcome outside its set
    spec = _spec(("c1", ("q1", "q2"), [(PLUS, "0")]), ("c2", ("q1", "q1"), [(PLUS, PLUS)]))
    with pytest.raises(DuplicateContentInContext):
        enumerate_variants(spec)


def test_allowed_tuples_are_read_not_filtered_from_the_product():
    # one context of 40 binary contents admits one tuple: its 2**40 outcome
    # product is never walked
    contents = tuple(f"q{i}" for i in range(40))
    spec = EpistemicSpec(
        outcomes=dict.fromkeys(contents, (PLUS, MINUS)),
        contexts=(
            EpistemicContext("c1", contents, ContextConstraint.explicit([(MINUS,) * 40])),
        ),
    )
    start = time.perf_counter()
    view = enumerate_variants(spec)
    assert time.perf_counter() - start < 0.5
    assert len(view) == 1
    assert set(view[0].assignment.values()) == {MINUS}


def test_allowed_tuples_keep_the_product_order():
    # unordered and repeated allowed lists give the variants, in the order,
    # that filtering each context's outcome product gives
    rng = random.Random(43)
    repeated = 0
    for _ in range(200):
        spec = random_spec(rng)
        contexts = []
        for ctx in spec.contexts:
            allowed = list(ctx.constraint.allowed or ())
            if allowed and rng.random() < 0.5:
                allowed += rng.choices(allowed, k=rng.randint(1, 3))
                rng.shuffle(allowed)
                repeated += 1
                ctx = ctx._replace(constraint=ContextConstraint.explicit(allowed))
            contexts.append(ctx)
        spec = spec._replace(contexts=tuple(contexts))
        variants = [v.assignment for v in enumerate_variants(spec)]
        assert variants == enumerate_by_assignment(spec)
    assert repeated > 50


def test_mixture_tables_pair():
    spec = liar_system(2)
    mixture = uniform_mixture(spec, enumerate_variants(spec))
    half = F(1, 2)
    agree = mixture.block("c1:q1->q2")
    assert agree.table == {(PLUS, PLUS): half, (MINUS, MINUS): half}
    disagree = mixture.block("c2:q2->q1")
    assert disagree.table == {(PLUS, MINUS): half, (MINUS, PLUS): half}


def test_mixture_tables_four_cycle():
    spec = liar_system(4)
    mixture = uniform_mixture(spec, enumerate_variants(spec))
    half = F(1, 2)
    for cid in ("c1", "c2", "c3"):
        assert mixture.block(cid).table == {
            (PLUS, PLUS): half,
            (MINUS, MINUS): half,
        }
    assert mixture.block("c4").table == {
        (PLUS, MINUS): half,
        (MINUS, PLUS): half,
    }


def test_mixture_is_consistent_but_contextual():
    spec = liar_system(3)
    mixture = uniform_mixture(spec, enumerate_variants(spec))
    assert is_consistently_connected(mixture).overall
    report = analyze(mixture)
    assert report.delta_sum == 0
    assert report.cnt == 1
    # cross-check against basis enumeration; drop the atoms pinned to zero
    # by empty cells first, else the basis count is astronomical
    full = full_lp(mixture)
    rows, rhs = full.dense, full.rhs
    forced = {
        j
        for row, b in zip(rows, rhs)
        if b == 0
        for j, a in enumerate(row)
        if a
    }
    keep = [j for j in range(len(full.atoms)) if j not in forced]
    red_rows = [
        [row[j] for j in keep] for row, b in zip(rows, rhs) if b != 0
    ]
    red_rhs = [b for b in rhs if b != 0]
    costs = [full.objective[j] for j in keep]
    optimum, _, _ = enumerate_min(costs, red_rows, red_rhs)
    assert optimum == report.system_delta


def test_explicit_weights():
    spec = liar_system(2)
    variants = enumerate_variants(spec)
    weights = [F(1, 8), F(3, 8), F(1, 4), F(1, 4)]
    mixture = uniform_mixture(spec, variants, weights=weights)
    for ctx in spec.contexts:
        assert sum(mixture.block(ctx.context).table.values()) == 1
    report = analyze(mixture)
    assert report.cnt >= 0


def test_mixture_tables_equal_fraction_sums():
    spec = liar_system(4)
    variants = enumerate_variants(spec)
    rng = random.Random(5)
    raw = [rng.randint(0, 9) for _ in variants]
    for weights in (None, [F(w, sum(raw)) for w in raw]):
        mixture = uniform_mixture(spec, variants, weights=weights)
        ws = weights or [F(1, len(variants))] * len(variants)
        for ctx in spec.contexts:
            want = {}
            for variant, w in zip(variants, ws):
                cell = tuple(variant.assignment[(q, ctx.context)] for q in ctx.contents)
                want[cell] = want.get(cell, F(0)) + w
            want = {cell: p for cell, p in want.items() if p != 0}
            assert mixture.block(ctx.context).table == want


def test_explicit_weight_validation():
    spec = liar_system(2)
    variants = enumerate_variants(spec)
    with pytest.raises(DomainMismatch):
        uniform_mixture(spec, variants, weights=[F(1, 4)] * 3 + [F(1, 8)])
    with pytest.raises(DomainMismatch):
        uniform_mixture(spec, variants, weights=[F(1, 2), F(1, 2)])
    with pytest.raises(DomainMismatch):
        uniform_mixture(
            spec, variants, weights=[F(1, 2), F(1, 2), F(1, 2), F(-1, 2)]
        )


def test_weight_sum_mismatch_with_too_many_digits_to_print():
    spec = liar_system(2)
    weights = [F(1, 2**14000), F(1, 3**8800), 0, 0]
    with pytest.raises(DomainMismatch) as info:
        uniform_mixture(spec, enumerate_variants(spec), weights=weights)
    # printed in full, as the count in CapExceeded's message is
    total, _, tail = str(info.value).removeprefix("weights sum to ").partition(", ")
    assert tail == "expected 1"
    assert fold_exact(total) == sum(weights)


def test_mixture_requires_variants():
    spec = liar_system(2)
    with pytest.raises(EmptyVariantSet):
        uniform_mixture(spec, ())


def test_degenerate_weights_give_deterministic_system():
    spec = liar_system(3)
    variants = enumerate_variants(spec)
    weights = [F(0)] * len(variants)
    weights[1] = F(1)
    mixture = uniform_mixture(spec, variants, weights=weights)
    assert is_deterministic(mixture)
    report = analyze(mixture)
    assert report.cnt == 0
    assert not report.contextual


def test_random_sub_mixtures_stay_valid():
    spec = liar_system(4)
    variants = enumerate_variants(spec)
    rng = random.Random(67)
    for _ in range(10):
        chosen = rng.sample(variants, rng.randint(1, len(variants)))
        mixture = uniform_mixture(spec, tuple(chosen))
        for ctx in spec.contexts:
            assert sum(mixture.block(ctx.context).table.values()) == 1
        report = analyze(mixture)
        assert report.cnt >= 0


def test_inexact_weights_are_refused():
    spec = liar_system(2)
    variants = enumerate_variants(spec)
    for weights in (
        [0.25] * 4,
        [0.1, 0.2, 0.3, 0.4],
        [True, False, False, False],
        [F(1, 2), F(1, 2), 0.0, F(0)],
        # the gate of a probability: too long for a report to print, or a
        # type no probability may have
        ["1e-5000"] * 4,
        [F(1, 10**5000)] * 4,
        [decimal.Decimal("0.25")] * 4,
    ):
        with pytest.raises(InvalidProbability):
            uniform_mixture(spec, variants, weights=weights)
    # exact forms keep working, strings and ints included
    mixture = uniform_mixture(spec, variants, weights=["1/2", "0.5", 0, F(0)])
    assert not is_deterministic(mixture)


def enumerate_by_assignment(spec):
    """The variants as a list, the product of admissible tuples in id order."""
    ordered = sorted(spec.contexts, key=lambda ctx: ctx.context)
    per_context = []
    for ctx in ordered:
        kind = ctx.constraint.kind
        allowed = set(ctx.constraint.allowed or ())
        tuples = []
        for t in itertools.product(*(spec.outcomes[q] for q in ctx.contents)):
            if kind == "equal":
                ok = t[0] == t[1]
            elif kind == "unequal":
                ok = t[0] != t[1]
            else:
                ok = t in allowed
            if ok:
                tuples.append(t)
        per_context.append(tuples)
    variants = []
    for combo in itertools.product(*per_context):
        assignment = {}
        for ctx, cell in zip(ordered, combo):
            for q, o in zip(ctx.contents, cell):
                assignment[(q, ctx.context)] = o
        variants.append(assignment)
    return variants


def random_spec(rng):
    contents = [f"q{i}" for i in range(rng.randint(1, 4))]
    outcomes = {
        q: (PLUS, MINUS) if rng.random() < 0.6 else ("a", "b", "c") for q in contents
    }
    # labels drawn out of order, so spec order and id order differ
    labels = rng.sample([f"c{i}" for i in range(9)], rng.randint(1, 4))
    contexts = []
    for label in labels:
        qs = tuple(rng.sample(contents, rng.randint(1, min(3, len(contents)))))
        binary = all(outcomes[q] == (PLUS, MINUS) for q in qs)
        if len(qs) == 2 and binary and rng.random() < 0.4:
            constraint = rng.choice(
                (ContextConstraint.equal(), ContextConstraint.unequal())
            )
        else:
            cells = list(itertools.product(*(outcomes[q] for q in qs)))
            constraint = ContextConstraint.explicit(
                rng.sample(cells, rng.randint(1, len(cells)))
            )
        contexts.append(EpistemicContext(label, qs, constraint))
    return EpistemicSpec(outcomes=outcomes, contexts=tuple(contexts))


def written(system):
    buf = io.StringIO()
    write_system(system, buf)
    return buf.getvalue()


def test_view_matches_enumeration_and_list_mixture():
    rng = random.Random(41)
    seen = {"arity": set(), "ternary": 0, "allowed": 0, "unsorted": 0}
    for _ in range(120):
        spec = random_spec(rng)
        view = enumerate_variants(spec)
        variants = list(view)
        assert [v.assignment for v in variants] == enumerate_by_assignment(spec)
        assert len(view) == len(variants)
        fast = uniform_mixture(spec, view)
        slow = uniform_mixture(spec, variants)
        assert fast == slow  # outcome sets and every context's table
        assert written(fast) == written(slow)
        labels = [ctx.context for ctx in spec.contexts]
        seen["arity"] |= {len(ctx.contents) for ctx in spec.contexts}
        seen["ternary"] += any(len(v) == 3 for v in spec.outcomes.values())
        seen["allowed"] += any(c.constraint.kind == "allowed" for c in spec.contexts)
        seen["unsorted"] += labels != sorted(labels)
    assert seen["arity"] == {1, 2, 3}
    assert min(seen["ternary"], seen["allowed"], seen["unsorted"]) > 10


def test_view_is_a_sequence():
    view = enumerate_variants(liar_system(4))
    items = list(view)
    assert isinstance(view, Sequence)
    assert len(view) == len(items) == 16
    for i in range(len(items)):
        assert view[i] == items[i]
        assert view[i - len(items)] == items[i]
    assert view[3:11:2] == items[3:11:2]
    assert view[::-1] == items[::-1]
    assert view[100:] == []
    for bad in (16, 17, -17):
        with pytest.raises(IndexError):
            view[bad]
    assert items.index(view[9]) == 9


def test_view_mixed_under_another_spec():
    view = enumerate_variants(liar_system(3))
    for variants in (list(view), view):
        with pytest.raises(DomainMismatch):
            uniform_mixture(liar_system(4), variants)


def test_uniform_mixture_of_a_view_visits_no_variant(monkeypatch):
    # Liar 70 has 2**70 variants, past sys.maxsize, so len() of its view
    # overflows: the mixture, a view of another spec and a weight count that
    # does not match are all answered from the view's contexts
    views = {n: enumerate_variants(liar_system(n)) for n in (16, 70)}
    assert len(views[16]) == 2**16

    def refuse(*args):
        pytest.fail("a variant was decoded")

    monkeypatch.setattr(type(views[16]), "__iter__", refuse)
    monkeypatch.setattr(type(views[16]), "__getitem__", refuse)
    half = F(1, 2)
    for n, view in views.items():
        spec = liar_system(n)
        mixture = uniform_mixture(spec, view)
        assert len(mixture.blocks) == n
        for ctx in spec.contexts[:-1]:
            assert mixture.block(ctx.context).table == {
                (PLUS, PLUS): half,
                (MINUS, MINUS): half,
            }
        assert mixture.block(spec.contexts[-1].context).table == {
            (PLUS, MINUS): half,
            (MINUS, PLUS): half,
        }
        with pytest.raises(DomainMismatch, match="another spec"):
            uniform_mixture(liar_system(n - 1), view)
        with pytest.raises(DomainMismatch, match="one weight per variant"):
            uniform_mixture(spec, view, weights=[1])
