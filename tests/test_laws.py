"""Exact laws of contextuality, checked against the monolithic coupling LP.

Each law relates the report of a composed system to the reports of its parts,
so it referees system_delta at sizes no second solver reaches.
"""

import math
import random
from fractions import Fraction

import pytest

from cbd import analyze, validate_system
from helpers import (
    cycle_system,
    kd_closed_form_cnt,
    rand_c2_consistent,
    rand_system,
    rand_weights,
    rank_n_cycle_weights,
)

F = Fraction


def prefixed(system, tag):
    """The system with tag put before every content and context id."""
    return validate_system(
        {tag + q: v for q, v in system.outcomes.items()},
        [
            (tag + blk.context, tuple(tag + q for q in blk.contents), dict(blk.table))
            for blk in system.blocks
        ],
    )


def blocks_of(system):
    return [(blk.context, blk.contents, dict(blk.table)) for blk in system.blocks]


def northwest_joint(xs, ys):
    """The north-west-corner coupling of two tables, cells concatenated."""
    xs, ys = sorted(xs.items()), sorted(ys.items())
    joint, i, j = {}, 0, 0
    a, b = xs[0][1], ys[0][1]
    while True:
        m = min(a, b)
        if m:
            joint[xs[i][0] + ys[j][0]] = m
        a, b = a - m, b - m
        if a == 0:
            i += 1
            if i == len(xs):
                return joint
            a = xs[i][1]
        if b == 0:
            j += 1
            if j == len(ys):
                return joint
            b = ys[j][1]


def product_joint(xs, ys):
    """The independent coupling of two tables, cells concatenated."""
    return {cx + cy: px * py for cx, px in xs.items() for cy, py in ys.items()}


def glued(s1, s2, x, y, joint):
    """The union of s1 and s2 with context x of s1 and y of s2 merged into
    one context, "glued", whose table is joint."""
    union = union_of(s1, s2)
    kept = [b for b in blocks_of(union) if b[0] not in (x.context, y.context)]
    return validate_system(
        union.outcomes, kept + [("glued", x.contents + y.contents, joint)]
    )


def numbers(report):
    return report.delta_sum, report.system_delta, report.cnt


def added(r1, r2):
    return tuple(a + b for a, b in zip(numbers(r1), numbers(r2)))


def union_of(s1, s2):
    outcomes = {**s1.outcomes, **s2.outcomes}
    return validate_system(outcomes, blocks_of(s1) + blocks_of(s2))


@pytest.fixture(scope="module")
def pairs():
    """Seeded pairs of systems with disjoint contents and contexts, with the
    report of each: 40 pairs of random systems, then 20 whose second side is
    a consistently connected rank-2 system, which is often contextual."""
    rng = random.Random(77)
    out = []
    for k in range(60):
        s1 = rand_system(rng, ternary_share=0.3, max_atoms=64)
        if k < 40:
            s2 = rand_system(rng, ternary_share=0.3, max_atoms=64)
        else:
            s2 = rand_c2_consistent(rng)
        s1, s2 = prefixed(s1, "a"), prefixed(s2, "b")
        out.append((s1, s2, analyze(s1), analyze(s2)))
    return out


def test_disjoint_union_adds(pairs):
    assert sum(r1.contextual + r2.contextual for _, _, r1, r2 in pairs) >= 5
    for s1, s2, r1, r2 in pairs:
        assert numbers(analyze(union_of(s1, s2))) == added(r1, r2)


def test_gluing_one_context_from_each_side_adds(pairs):
    # the glued context's table is any joint of the two: here the product or
    # the north-west-corner coupling
    rng = random.Random(78)
    for s1, s2, r1, r2 in pairs:
        x, y = rng.choice(s1.blocks), rng.choice(s2.blocks)
        if rng.random() < 0.5:
            joint = product_joint(x.table, y.table)
        else:
            joint = northwest_joint(x.table, y.table)
        assert sum(joint.values()) == 1
        assert numbers(analyze(glued(s1, s2, x, y, joint))) == added(r1, r2)


def test_gluing_adds_on_a_necklace_of_two_rank3_rings():
    # two full-support binary rank-3 rings glued at one context each: 12
    # variables and 4,096 atoms, with each ring's cnt refereed by the closed
    # form; the first necklace has both rings contextual
    rng = random.Random(91)
    for biased, joint_of in (
        ((True, True), product_joint),
        ((True, False), northwest_joint),
    ):
        sides = []
        for tag, bias in zip("ab", biased):
            contexts = rank_n_cycle_weights(rng, 3, bias)
            ring = prefixed(cycle_system(3, contexts), tag)
            report = analyze(ring)
            assert report.cnt == kd_closed_form_cnt(contexts)
            sides.append((ring, report))
        (s1, r1), (s2, r2) = sides
        if joint_of is product_joint:
            assert r1.contextual and r2.contextual
        x, y = s1.blocks[0], s2.blocks[0]
        necklace = glued(s1, s2, x, y, joint_of(x.table, y.table))
        assert len(necklace.variables) == 12
        assert numbers(analyze(necklace)) == added(r1, r2)


def test_private_content_changes_nothing(pairs):
    # a content that one context measures, with a random conditional table
    rng = random.Random(79)
    for s1, _, r1, _ in pairs:
        blk = rng.choice(s1.blocks)
        labels = rng.choice([("u", "v"), ("u", "v", "w")])
        table = {}
        for cell, p in blk.table.items():
            for z, w in zip(labels, rand_weights(rng, len(labels))):
                table[cell + (z,)] = p * w
        private = validate_system(
            {**s1.outcomes, "private": labels},
            [b for b in blocks_of(s1) if b[0] != blk.context]
            + [(blk.context, blk.contents + ("private",), table)],
        )
        assert numbers(analyze(private)) == numbers(r1)


def test_point_mass_context_adds_its_pair_deltas(pairs):
    # its pairs' mismatches are fixed in every coupling, so system_delta and
    # delta_sum rise by the same amount and cnt stays
    rng = random.Random(80)
    for s1, s2, r1, r2 in pairs:
        union = union_of(s1, s2)
        qs = tuple(rng.sample(union.content_ids, 2))
        cell = tuple(rng.choice(union.outcomes[q]) for q in qs)
        point = ("point", qs, {cell: F(1)})
        after = analyze(validate_system(union.outcomes, blocks_of(union) + [point]))
        rise = sum(
            pd.delta
            for pd in after.pair_deltas
            if "point" in (pd.context_a, pd.context_b)
        )
        before = added(r1, r2)
        assert numbers(after) == (before[0] + rise, before[1] + rise, before[2])


def single_content_system(rng):
    """A system whose contexts each measure one content.  Each connection is
    binary, of one to six members, or has one or two members over three to
    five outcomes; at most 4,096 atoms."""
    while True:
        members = []
        for i in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                labels, count = rng.choice([("+1", "-1"), ("x", "y")]), rng.randint(1, 6)
            else:
                labels, count = tuple("abcde"[: rng.randint(3, 5)]), rng.randint(1, 2)
            members += [(f"q{i}", labels)] * count
        if math.prod(len(labels) for _, labels in members) <= 4096:
            break
    rng.shuffle(members)
    return validate_system(
        dict(members),
        [
            (f"c{k}", (q,), dict(zip([(o,) for o in labels], rand_weights(rng, len(labels)))))
            for k, (q, labels) in enumerate(members)
        ],
    )


def test_single_content_contexts_have_cnt_zero():
    # with one variable per context, every coupling of the connections is a
    # coupling of the system, and a binary or two-member connection has one
    # coupling that reaches each pair's total variation at once
    rng = random.Random(81)
    for _ in range(240):
        report = analyze(single_content_system(rng))
        assert report.cnt == 0
        assert report.delta_sum == report.system_delta
