"""The identity corpus (tests/identity_corpus.py) under pytest.

The digest test checks each group's committed digests.  The referee test
solves the same support LPs by the dense tableau of tests/referee_simplex.py
from each LP's start, and checks that it makes solve_lp's pivots, finds its
solution and matches the committed pivot digest.
"""

from __future__ import annotations

import pytest

from cbd import build_coupling_lp, is_deterministic
from helpers import solves_from_start
from identity_corpus import committed, corpus, digests, sha256_lines


@pytest.mark.parametrize("group", list(corpus()))
def test_digests_match_the_committed_corpus(group):
    assert digests(corpus()[group]()) == committed()[group]


@pytest.mark.parametrize("group", list(corpus()))
def test_referee_tableau_makes_the_same_pivots(group):
    want = committed()[group]
    dense_pivots = []
    for system in corpus()[group]():
        if is_deterministic(system):
            continue  # analyze solves no LP for it
        lp = build_coupling_lp(system)
        (result, pivots), (dense_result, dense) = solves_from_start(system, lp)
        assert dense == pivots
        assert dense_result == result
        dense_pivots += dense
    assert len(dense_pivots) == want["pivots"]
    assert sha256_lines(f"{r} {s}" for r, s in dense_pivots) == want["pivot_sequence"]
