"""The integer marginal layer against a Fraction reference.

The marginals, isolated deltas, connection consistency and delta_sum are
computed on integer forms.  The reference below is written out here on
Fraction arithmetic, one formula per quantity, and imports none of the
package's own formulas.
"""

import itertools
import math
import random
from fractions import Fraction

from cbd import (
    analyze,
    delta_pairs,
    is_consistently_connected,
    marginal,
    parse_system_text,
    validate_system,
)
from cbd.systems import marginal_forms
from helpers import rand_system

F = Fraction
ABC = ("a", "b", "c")
XY = ("x", "y")


# ---------------------------------------------------------------------------
# the Fraction reference


def ref_marginal(system, content, context):
    blk = system.block(context)
    i = blk.contents.index(content)
    dist = {o: F(0) for o in system.outcomes[content]}
    for cell, p in blk.table.items():
        dist[cell[i]] += p
    return dist


def ref_isolated_delta(p1, p2):
    """The mass p1 puts above p2, outcomes matched by key."""
    return sum((p - p2[o] for o, p in p1.items() if p > p2[o]), F(0))


def ref_delta_pairs(system):
    out = []
    for q in sorted({q for blk in system.blocks for q in blk.contents}):
        ctxs = [blk.context for blk in system.blocks if q in blk.contents]
        for ca, cb in itertools.combinations(ctxs, 2):
            d = ref_isolated_delta(ref_marginal(system, q, ca), ref_marginal(system, q, cb))
            out.append((q, ca, cb, d))
    return out


def ref_consistency(system):
    per = {}
    for q in sorted({q for blk in system.blocks for q in blk.contents}):
        dists = [ref_marginal(system, q, blk.context) for blk in system.blocks if q in blk.contents]
        per[q] = all(d == dists[0] for d in dists[1:])
    return per, all(per.values())


def check_against_reference(system, with_report=True):
    pairs = delta_pairs(system)
    assert pairs == ref_delta_pairs(system)
    assert all(type(d) is Fraction for *_, d in pairs)
    consistency = is_consistently_connected(system)
    assert (consistency.per_connection, consistency.overall) == ref_consistency(system)
    forms = marginal_forms(system)
    assert marginal_forms(system) is forms
    for context, q in system.variables:
        m = marginal(system, q, context)
        ref = ref_marginal(system, q, context)
        assert m.probs == ref
        assert list(m.probs) == list(system.outcomes[q])
        den, nums = forms[(context, q)]
        assert math.gcd(den, *nums) == 1
        assert [F(n, den) for n in nums] == [ref[o] for o in system.outcomes[q]]
        assert marginal(system, q, context) == m
    if with_report:
        report = analyze(system)
        assert report.delta_sum == sum((d for *_, d in ref_delta_pairs(system)), F(0))
        assert type(report.delta_sum) is Fraction
    return consistency.per_connection


# ---------------------------------------------------------------------------
# inputs


def test_random_systems_match_the_reference():
    rng = random.Random(23)
    for _ in range(120):
        system = rand_system(
            rng, max_contents=4, max_contexts=4, max_block=3,
            ternary_share=0.4, max_atoms=256,
        )
        check_against_reference(system)


def _weights(rng, n):
    ws = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
    if not any(ws):
        ws[rng.randrange(n)] = 1
    return [F(w, sum(ws)) for w in ws]


def _unreduced(rng, p):
    """An exact string for p that is rarely in lowest terms."""
    k = rng.randint(1, 4)
    if 10**6 % p.denominator == 0 and rng.random() < 0.5:
        # decimal, padded with trailing zeros: 1/2 -> "0.50", 3/4 -> "0.7500"
        digits = 6
        text = f"{p.numerator * 10**digits // p.denominator:0{digits + 1}d}"
        return f"{text[:-digits]}.{text[-digits:]}".rstrip("0") + "0" * k
    return f"{p.numerator * k}/{p.denominator * k}"


def _table(rng, dists):
    """A joint table with the given margins: their product, perturbed along
    a margin-preserving cycle when that stays nonnegative."""
    cells = list(itertools.product(*(list(d) for d in dists)))
    table = {cell: math.prod(d[o] for d, o in zip(dists, cell)) for cell in cells}
    if len(dists) == 2 and rng.random() < 0.6:
        (a1, a2), (b1, b2) = (rng.sample(list(d), 2) for d in dists)
        eps = min(table[(a1, b2)], table[(a2, b1)]) * F(rng.randint(1, 3), 3)
        table[(a1, b1)] += eps
        table[(a2, b2)] += eps
        table[(a1, b2)] -= eps
        table[(a2, b1)] -= eps
    return table


def _same_marginals_system(rng):
    """Contents with one marginal each (sometimes a second, different one
    in some context), every table written as unreduced strings, so equal
    marginals arrive over different table denominators."""
    contents = [f"q{i}" for i in range(rng.randint(2, 4))]
    outcomes = {q: rng.choice((XY, ABC)) for q in contents}
    base = {q: dict(zip(outcomes[q], _weights(rng, len(outcomes[q])))) for q in contents}
    blocks = []
    for j in range(rng.randint(2, 5)):
        qs = rng.sample(contents, rng.randint(1, 2))
        dists = []
        for q in qs:
            if rng.random() < 0.2:
                dists.append(dict(zip(outcomes[q], _weights(rng, len(outcomes[q])))))
            else:
                dists.append(base[q])
        table = _table(rng, dists)
        blocks.append(
            (f"c{j}", tuple(qs), {cell: _unreduced(rng, p) for cell, p in table.items()})
        )
    return validate_system(outcomes, blocks)


def test_equal_marginals_from_unreduced_strings():
    rng = random.Random(17)
    flags = []
    for _ in range(150):
        flags += check_against_reference(_same_marginals_system(rng)).values()
    # both verdicts occur, the consistent ones from differing denominators
    assert flags.count(True) > 50 and flags.count(False) > 20


def test_a_parsed_file_with_unreduced_strings():
    text = """{
      "contents": [{"id": "q", "values": ["+1", "-1"]},
                   {"id": "r", "values": ["+1", "-1"]}],
      "contexts": [
        {"id": "c1", "contents": ["q"],
         "distribution": [{"outcomes": ["+1"], "p": "2/4"},
                          {"outcomes": ["-1"], "p": "0.50"}]},
        {"id": "c2", "contents": ["q", "r"],
         "distribution": [{"outcomes": ["+1", "+1"], "p": "3/6"},
                          {"outcomes": ["-1", "+1"], "p": "1/6"},
                          {"outcomes": ["-1", "-1"], "p": "2/6"}]},
        {"id": "c3", "contents": ["r"],
         "distribution": [{"outcomes": ["+1"], "p": "0.6"},
                          {"outcomes": ["-1"], "p": "4/10"}]}
      ]
    }"""
    system = parse_system_text(text)
    assert check_against_reference(system) == {"q": True, "r": False}
    assert marginal_forms(system)[("c1", "q")] == marginal_forms(system)[("c2", "q")] == (2, (1, 1))
    assert delta_pairs(system) == [("q", "c1", "c2", F(0)), ("r", "c2", "c3", F(1, 15))]
