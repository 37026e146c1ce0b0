import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import cbd.coupling
import cbd.simplex
from cbd import (
    CapExceeded,
    ContextConstraint,
    EpistemicContext,
    EpistemicSpec,
    analyze,
    build_coupling_lp,
    cyclic_criterion,
    delta_pairs,
    enumerate_variants,
    liar_system,
    marginal,
    solve_lp,
    system_delta,
    uniform_mixture,
    validate_system,
    verify_solution,
)
from cbd.coupling import LPSolution
from cbd.errors import InternalError
from cbd.oracle import exact_rank
from cbd.simplex import SimplexError
from helpers import (
    M,
    P,
    cycle_system,
    four_cycle_name_system,
    full_lp,
    is_feasible,
    is_solution,
    kd_closed_form_cnt,
    kd_mean_gap,
    lp_views,
    on_full_lp,
    order_effect_oracle_min,
    order_effect_system,
    pm_registry,
    rand_c2,
    rand_c2_equal_correlation,
    rand_deterministic,
    rand_marginal_probs,
    rand_system,
    rank_n_cycle_weights,
    solves_from_start,
    two_phase_optimum,
    without_bound,
)
import referee_simplex

F = Fraction


def pm(u):
    """A binary distribution with u on '+1'."""
    return {P: F(u), M: 1 - F(u)}


def pair_system(m1_probs, m2_probs, outcomes=(P, M)):
    """Two singleton contexts over one content: the pair-coupling LP."""
    return validate_system(
        {"q1": outcomes},
        [
            ("d1", ("q1",), {(o,): p for o, p in m1_probs.items()}),
            ("d2", ("q1",), {(o,): p for o, p in m2_probs.items()}),
        ],
    )


def pair_delta(sys_):
    (pd,) = delta_pairs(sys_)
    return pd.delta


def witness_table(sys_):
    """The system_delta witness of a pair system, as a joint table of the
    d1 and d2 outcomes."""
    _, witness = system_delta(sys_)
    assert witness.variables == (("d1", "q1"), ("d2", "q1"))
    return dict(witness.weights)


def binary_min_table(u, v):
    """The minimal coupling of two binary marginals in closed form, zero
    cells left out: diagonal cells as large as the margins allow."""
    lo = min(u, v)
    cells = {(P, P): lo, (P, M): u - lo, (M, P): v - lo, (M, M): min(1 - u, 1 - v)}
    return {cell: p for cell, p in cells.items() if p}


def assert_margins(table, sys_):
    """table's two margins are the marginals of q1 in d1 and d2."""
    for k, context in enumerate(("d1", "d2")):
        probs = marginal(sys_, "q1", context).probs
        margin = {o: sum((p for c, p in table.items() if c[k] == o), F(0)) for o in probs}
        assert margin == probs


def discrepancy(table):
    return sum(p for (x, y), p in table.items() if x != y)


# ---------------------------------------------------------------------------
# isolated deltas


def test_isolated_delta_equal_marginals():
    assert pair_delta(pair_system(pm(F(1, 3)), pm(F(1, 3)))) == 0


def test_isolated_delta_binary():
    assert pair_delta(pair_system(pm(F(3, 4)), pm(F(1, 4)))) == F(1, 2)


def test_isolated_delta_ternary_vs_lp():
    probs1 = {"a": F(1, 2), "b": F(1, 2), "c": F(0)}
    probs2 = {"a": F(1, 2), "b": F(0), "c": F(1, 2)}
    sys_ = pair_system(probs1, probs2, ("a", "b", "c"))
    assert pair_delta(sys_) == F(1, 2)
    # independent route: the two-context coupling LP over the same pair
    delta, _ = system_delta(sys_)
    assert delta == F(1, 2)


def test_isolated_delta_random_pairs_match_lp():
    rng = random.Random(7)
    for _ in range(25):
        u, v = rand_marginal_probs(rng), rand_marginal_probs(rng)
        sys_ = pair_system(u, v)
        d = pair_delta(sys_)
        assert d == abs(u[P] - v[P])
        lp_delta, _ = system_delta(sys_)
        assert lp_delta == d


# ---------------------------------------------------------------------------
# minimal coupling tables: a binary pair's optimal coupling is unique, so the
# system_delta witness is the closed-form table


def test_min_coupling_identical_fair():
    t = witness_table(pair_system(pm(F(1, 2)), pm(F(1, 2))))
    assert t == {(P, P): F(1, 2), (M, M): F(1, 2)}
    assert discrepancy(t) == 0


def test_min_coupling_disjoint_point_masses():
    t = witness_table(pair_system(pm(1), pm(0)))
    assert t == {(P, M): 1}
    assert discrepancy(t) == 1


def test_min_coupling_table_and_margins():
    sys_ = pair_system(pm(F(3, 4)), pm(F(1, 4)))
    t = witness_table(sys_)
    assert t == {(P, P): F(1, 4), (P, M): F(1, 2), (M, M): F(1, 4)}
    assert_margins(t, sys_)
    assert discrepancy(t) == pair_delta(sys_)


def test_min_coupling_random_pairs():
    rng = random.Random(13)
    for _ in range(25):
        u, v = rand_marginal_probs(rng), rand_marginal_probs(rng)
        sys_ = pair_system(u, v)
        t = witness_table(sys_)
        assert t == binary_min_table(u[P], v[P])
        assert_margins(t, sys_)
        assert discrepancy(t) == pair_delta(sys_)


# ---------------------------------------------------------------------------
# the system coupling LP


def test_build_lp_pair_system_shape():
    full = full_lp(order_effect_system())
    assert len(full.atoms) == 16
    cells, mass = full.dense[:-1], full.dense[-1]
    assert len(cells) == 8
    assert mass == [1] * 16
    assert len(order_effect_system().pairs()) == 2
    assert set(full.objective) <= {0, 1, 2}
    assert exact_rank(cells) == 7       # one dependency among the 8 cell rows
    assert exact_rank(full.dense) == 7  # the mass row is already in their span


def test_build_lp_single_context_unique_coupling():
    table = {(P, P): F(1, 6), (P, M): F(1, 3), (M, P): F(1, 4), (M, M): F(1, 4)}
    sys_ = validate_system(pm_registry("q1", "q2"), [("c1", ("q1", "q2"), table)])
    lp = build_coupling_lp(sys_)
    assert lp.objective == (0, 0, 0, 0)
    sol = solve_lp(lp)
    assert sol.optimum == 0
    recovered = {lp.atom(i): w for i, w in sol.weights.items()}
    assert recovered == table


def test_build_lp_four_cycle_shape():
    # four binary contents in a ring of four two-content contexts
    half = F(1, 2)
    blocks = []
    ring = [("c1", ("q1", "q2")), ("c2", ("q2", "q3")),
            ("c3", ("q3", "q4")), ("c4", ("q4", "q1"))]
    for ctx, qs in ring:
        blocks.append((ctx, qs, {(P, P): half, (M, M): half}))
    sys_ = validate_system(pm_registry("q1", "q2", "q3", "q4"), blocks)
    full = full_lp(sys_)
    assert len(full.atoms) == 256
    assert len(full.dense) == 17  # 4 contexts x 4 cells + mass
    assert len(sys_.pairs()) == 4
    assert max(full.objective) <= 4


def test_atom_cap_enforced():
    # the cap counts the support LP's atoms: 3 x 3 positive cells, not the
    # full LP's 16 outcome assignments
    with pytest.raises(CapExceeded) as info:
        build_coupling_lp(order_effect_system(), atom_cap=8)
    assert info.value.required == 9
    assert info.value.cap == 8
    assert build_coupling_lp(order_effect_system(), atom_cap=9).n_atoms == 9


def test_atom_cap_must_be_positive():
    for cap in (0, -5, True, False):
        with pytest.raises(ValueError, match="positive"):
            build_coupling_lp(order_effect_system(), atom_cap=cap)


def test_solve_lp_matches_enumeration_on_pair_system():
    sys_ = order_effect_system()
    full = full_lp(sys_)
    sup = build_coupling_lp(sys_)
    sol = solve_lp(sup)
    assert sol.optimum == order_effect_oracle_min() == F(1, 2)
    assert sol.optimum == two_phase_optimum(full)
    assert verify_solution(sup, sol)
    assert is_solution(full, on_full_lp(full, lp_views(sys_, sup), sol))


def test_verify_solution_rejects_weights_off_the_atoms():
    sys_ = order_effect_system()
    sup = build_coupling_lp(sys_)
    atoms = lp_views(sys_, sup).atoms
    sol = solve_lp(sup)
    assert sup.n_atoms == 9
    assert sol.optimum == two_phase_optimum(full_lp(sys_))
    assert verify_solution(sup, sol)
    for atom in (-1, 99):
        weights = {**sol.weights, atom: F(1, 2)}
        extra = LPSolution(optimum=sol.optimum, weights=weights)
        assert not verify_solution(sup, extra)
    # move an atom's mass to another atom of the same cost: the mass row and
    # the objective still hold, but a cell row does not
    a, w = next(iter(sol.weights.items()))
    b = next(
        c for c in range(sup.n_atoms)
        if c != a and sup.objective[c] == sup.objective[a]
    )
    moved = dict(sol.weights)
    del moved[a]
    moved[b] = moved.get(b, 0) + w
    assert sum(moved.values()) == 1
    assert sum(sup.objective[c] * v for c, v in moved.items()) == sol.optimum
    assert not verify_solution(sup, LPSolution(optimum=sol.optimum, weights=moved))
    # a negative weight that every row and the optimum accept: take t from
    # atoms a and c and give it to the two atoms that swap their first
    # context's cells, with t above a's weight (negating a weight alone
    # would break a row too)
    k = sum(1 for ctx, _ in sup.variables if ctx == sup.variables[0][0])
    x = atoms[a]
    c = next(i for i, y in enumerate(atoms) if y[:k] != x[:k] and y[k:] != x[k:])
    y = atoms[c]
    index = {atom: i for i, atom in enumerate(atoms)}
    t = w + 1
    negative = dict(sol.weights)
    for atom, dt in ((x, -t), (y, -t), (y[:k] + x[k:], t), (x[:k] + y[k:], t)):
        negative[index[atom]] = negative.get(index[atom], 0) + dt
    assert negative[a] < 0
    value = sum(sup.objective[i] * v for i, v in negative.items())
    assert not verify_solution(sup, LPSolution(optimum=value, weights=negative))
    # a wrong optimum
    off = LPSolution(optimum=sol.optimum + 1, weights=sol.weights)
    assert not verify_solution(sup, off)


def test_solve_lp_refuses_a_zero_cell_and_an_empty_start():
    # a zero-rhs row may force atoms to 0, but the solve holds only the
    # start's rows, so those atoms could enter the basis
    sup = build_coupling_lp(order_effect_system())
    zero = sup._replace(rhs=sup.rhs[:2] + (F(0),) + sup.rhs[3:])
    with pytest.raises(ValueError, match="support LP.*row 2 has rhs 0"):
        solve_lp(zero)
    with pytest.raises(ValueError, match="start basis"):
        solve_lp(sup._replace(start=()))


def test_system_delta_product_coupling_zero():
    # both contexts the same product table: identification costs nothing
    u, v = F(1, 3), F(3, 4)
    table = {
        (P, P): u * v, (P, M): u * (1 - v),
        (M, P): (1 - u) * v, (M, M): (1 - u) * (1 - v),
    }
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [("c1", ("q1", "q2"), table), ("c2", ("q1", "q2"), dict(table))],
    )
    delta, witness = system_delta(sys_)
    assert delta == 0
    total = sum(w for _, w in witness.weights)
    assert total == 1


def test_system_delta_order_effect_positive():
    delta, _ = system_delta(order_effect_system())
    assert delta == F(1, 2)


def test_delta_pairs_baseline():
    pairs = delta_pairs(order_effect_system())
    assert [(q, ca, cb) for q, ca, cb, _ in pairs] == [
        ("q1", "c1", "c2"), ("q2", "c1", "c2")
    ]
    assert all(d == 0 for _, _, _, d in pairs)


def test_product_coupling_feasible_on_random_systems():
    # independence across contexts always satisfies every cell constraint
    rng = random.Random(23)
    for _ in range(15):
        sys_ = rand_system(rng, ternary_share=0.2, max_atoms=128)
        full = full_lp(sys_)
        weights = []
        for atom in full.atoms:
            by_var = dict(zip(sys_.variables, atom))
            w = F(1)
            for blk in sys_.blocks:
                cell = tuple(by_var[(blk.context, q)] for q in blk.contents)
                w *= blk.prob(cell)
                if w == 0:
                    break
            weights.append(w)
        assert sum(weights) == 1
        assert is_feasible(full, dict(enumerate(weights)))


def test_lp_lower_bound_and_witness_random():
    rng = random.Random(31)
    for _ in range(15):
        sys_ = rand_system(rng, ternary_share=0.2, max_atoms=128)
        full = full_lp(sys_)
        sup = build_coupling_lp(sys_)
        sol = solve_lp(sup)
        assert verify_solution(sup, sol)
        assert is_solution(full, on_full_lp(full, lp_views(sys_, sup), sol))
        assert sol.optimum == two_phase_optimum(full)
        baseline = sum((d for _, _, _, d in delta_pairs(sys_)), F(0))
        assert sol.optimum >= baseline


# ---------------------------------------------------------------------------
# the support LP


def alive_atoms(full):
    """The atoms of a full LP that no zero cell forces to 0, in index order."""
    forced = {
        c for row, b in zip(full.dense, full.rhs) if b == 0 for c, a in enumerate(row) if a
    }
    return [i for i in range(len(full.atoms)) if i not in forced]


def liar_ring(n):
    spec = liar_system(n)
    return uniform_mixture(spec, enumerate_variants(spec))


def liar7():
    return liar_ring(7)


def check_lp_definition(sys_, lp, support):
    """The full or support LP against its definition, atom by atom: the
    atoms, each row's columns (the atoms whose cell matches) and rhs, and
    each atom's objective (its count of System.pairs() with two different
    outcomes).  lp is a support LP's lp_views or the oracle's full LP
    (full_lp).  A support LP's context rows follow its cells in the atoms'
    order: the product of its contents' outcomes, contents sorted; the full
    LP's rows are checked up to their order."""
    domains = [sys_.outcomes[q] for _, q in sys_.variables]
    spots = {
        blk.context: [sys_.variables.index((blk.context, q)) for q in blk.contents]
        for blk in sys_.blocks
    }

    def cell_of(atom, blk):
        return tuple(atom[k] for k in spots[blk.context])

    atoms = tuple(
        atom for atom in itertools.product(*domains)
        if not support or all(blk.prob(cell_of(atom, blk)) for blk in sys_.blocks)
    )
    assert tuple(lp.atoms) == atoms
    want = []
    for blk in sys_.blocks:
        contents = sorted(blk.contents)
        for sorted_cell in itertools.product(*(sys_.outcomes[q] for q in contents)):
            cell = tuple(sorted_cell[contents.index(q)] for q in blk.contents)
            if support and not blk.prob(cell):
                continue
            cols = tuple(
                i for i, atom in enumerate(atoms) if cell_of(atom, blk) == cell
            )
            want.append((cols, blk.prob(cell)))
    want.append((tuple(range(len(atoms))), F(1)))
    assert all(set(row) <= {0, 1} and len(row) == len(atoms) for row in lp.dense)
    got = [
        (tuple(i for i, a in enumerate(row) if a), b) for row, b in zip(lp.dense, lp.rhs)
    ]
    if support:
        assert got == want
        assert [(row.cols, row.rhs) for row in lp.rows] == want
    else:
        assert sorted(got) == sorted(want)
        assert got[-1] == want[-1]  # the mass row last
    index = {v: i for i, v in enumerate(sys_.variables)}
    pairs = [(index[(ca, q)], index[(cb, q)]) for q, ca, cb in sys_.pairs()]
    assert tuple(lp.objective) == tuple(
        sum(1 for i, j in pairs if atom[i] != atom[j]) for atom in atoms
    )
    assert all(type(c) is int for c in lp.objective)


def check_support_lp(sys_):
    full = full_lp(sys_)
    sup = build_coupling_lp(sys_)
    views = lp_views(sys_, sup)
    assert sup.variables == sys_.variables
    check_lp_definition(sys_, full, support=False)
    check_lp_definition(sys_, views, support=True)
    alive = alive_atoms(full)
    # the atoms, rows and costs the simplex sees, in the same order, and the
    # rows up to their order
    assert views.atoms == tuple(full.atoms[i] for i in alive)
    assert sup.objective == tuple(full.objective[i] for i in alive)
    assert sorted(zip(views.dense, sup.rhs)) == sorted(
        ([row[c] for c in alive], b) for row, b in zip(full.dense, full.rhs) if b
    )
    # solved to the end, and stopped at the bound with the same solution
    sol = solve_lp(without_bound(sup))
    assert solve_lp(sup) == sol
    assert verify_solution(sup, sol)
    assert is_solution(full, on_full_lp(full, views, sol))
    # phase 1 on the full LP, where that is cheap; Liar 7's 16,384 atoms take
    # seconds, and its test checks the optimum by the closed form instead
    if len(full.atoms) <= 256:
        assert sol.optimum == two_phase_optimum(full)
    return full, sup, sol


def test_support_lp_is_the_alive_part_of_the_full_lp():
    rng = random.Random(41)
    systems = [
        rand_system(rng, ternary_share=0.4, max_block=3, max_atoms=256)
        for _ in range(60)
    ]
    # deterministic systems: every context a point mass, one positive cell
    systems += [
        rand_deterministic(
            rng, max_contents=4, max_contexts=3, ternary_share=0.4, max_block=2
        )
        for _ in range(10)
    ]
    zero_cells = ternary = point_mass = 0
    for sys_ in systems:
        full, sup, _ = check_support_lp(sys_)
        zero_cells += len(full.rhs) - len(sup.rhs)
        ternary += any(len(outs) == 3 for outs in sys_.outcomes.values())
        point_mass += any(len(blk.table) == 1 for blk in sys_.blocks)
    assert zero_cells > 0 and ternary > 0 and point_mass > 10


def test_support_lp_of_liar_7():
    sys_ = liar7()
    full, sup, sol = check_support_lp(sys_)
    assert len(full.atoms) == 2**14
    assert sup.n_atoms == 128
    assert len(sup.rhs) == 15
    delta_sum = sum(d for *_, d in delta_pairs(sys_))
    assert sol.optimum == cyclic_criterion(sys_).cnt + delta_sum == 1


def test_support_lp_checks_the_cap_on_every_atom():
    # Liar 7's support LP has 2**7 atoms, though its full LP has 2**14
    with pytest.raises(CapExceeded) as info:
        build_coupling_lp(liar7(), atom_cap=127)
    assert info.value.required == 2**7
    assert build_coupling_lp(liar7(), atom_cap=128).n_atoms == 2**7


def test_the_cap_refuses_before_the_objective_is_built(monkeypatch):
    # Liar 21's support LP has 2**21 atoms, one over twice the default cap
    sys_ = liar_ring(21)
    monkeypatch.setattr(sys_, "pairs", lambda: pytest.fail("the objective was built"))
    monkeypatch.setattr(
        cbd.coupling, "_lower_bound", lambda system: pytest.fail("the bound was read")
    )
    with pytest.raises(CapExceeded) as info:
        build_coupling_lp(sys_)
    assert (info.value.required, info.value.cap) == (2**21, 2**20)


def test_analyze_builds_only_the_support_lp(monkeypatch):
    # once per LP, and the witness decodes only its basic atoms, each as the
    # support LP's atom list has it
    calls = []
    built = []
    build = cbd.coupling.build_coupling_lp

    def spy(*args, **kwargs):
        calls.append(args[0])
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cbd.coupling, "build_coupling_lp", spy)
    report = analyze(liar7())
    assert report.cnt == 1
    assert len(calls) == 1
    cycle = cycle_system(3, rank_n_cycle_weights(random.Random(3), 3, biased=True))
    cycle_report = analyze(cycle)
    assert calls[1:] == [cycle]
    assert [lp.n_atoms for lp in built] == [128, 64]
    for sys_, lp, rep in zip(calls, built, (report, cycle_report)):
        atoms = lp_views(sys_, lp).atoms
        weights = solve_lp(lp).weights
        assert [atom for atom, _ in rep.witness.weights] == [atoms[i] for i in weights]


def test_support_build_lists_no_atoms():
    # a rank-8 full-support cycle, 65,536 support atoms: the build keeps the
    # objective (0.5 MB) and peaked at 2.3 MB; listing the atoms and every
    # row's atoms held 35.9 MB after the build returned and peaked at 48.0 MB
    sys_ = cycle_system(8, rank_n_cycle_weights(random.Random(1), 8, biased=True))
    sys_.pairs()  # the system's own cached index, outside the count
    tracemalloc.start()
    try:
        lp = build_coupling_lp(sys_)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lp.n_atoms == 2**16
    assert held < 2_000_000
    assert peak < 8_000_000


def test_solver_failure_is_an_internal_error(monkeypatch):
    def fail(*args, **kwargs):
        raise SimplexError("pivot limit exceeded")

    monkeypatch.setattr(cbd.simplex, "solve_min", fail)
    with pytest.raises(InternalError, match="pivot limit exceeded"):
        system_delta(order_effect_system())


def test_pivot_limit_is_an_internal_error(monkeypatch):
    # the solver's own limit, not a mocked failure: with a limit of 0 the
    # first pivot installing the start exceeds it
    monkeypatch.setattr(cbd.simplex, "MAX_PIVOTS", 0)
    with pytest.raises(InternalError, match="pivot limit exceeded"):
        system_delta(order_effect_system())


# ---------------------------------------------------------------------------
# the north-west-corner start


def equal_unequal(edges, kinds, contents, contexts):
    """The uniform mixture of an epistemic spec over '+1'/'-1' contents: one
    context per edge (a, b) of content positions, named by contexts in edge
    order, with kind 'equal' or 'unequal' from kinds."""
    constraint = {"equal": ContextConstraint.equal(), "unequal": ContextConstraint.unequal()}
    spec = EpistemicSpec(
        outcomes=pm_registry(*contents),
        contexts=tuple(
            EpistemicContext(c, (contents[a], contents[b]), constraint[kind])
            for c, (a, b), kind in zip(contexts, edges, kinds)
        ),
    )
    return uniform_mixture(spec, enumerate_variants(spec))


def random_equal_unequal(rng, edges, n):
    """equal_unequal over n contents with the kinds, each context's content
    order and the labels (so the sorted orders) drawn from rng."""
    edges = [tuple(rng.sample(edge, 2)) for edge in edges]
    contents = [f"q{k}" for k in rng.sample(range(10 * n), n)]
    contexts = [f"c{k}" for k in rng.sample(range(10 * len(edges)), len(edges))]
    kinds = [rng.choice(("equal", "unequal")) for _ in edges]
    return equal_unequal(edges, kinds, contents, contexts)


def random_ring(rng, n):
    return random_equal_unequal(rng, [(i, (i + 1) % n) for i in range(n)], n)


def random_tree(rng, n):
    """A tree over n contents, each content after the first joined to an
    earlier one by one context."""
    return random_equal_unequal(rng, [(rng.randrange(i), i) for i in range(1, n)], n)


def start_systems():
    """Seeded random systems and the degenerate cases of the start: Liar
    rings with every table at 1/2 (ties at every step), point-mass contexts
    alone and mixed with others, rings whose labels make some contents run
    downward (so some contexts are walked backward), one of them with a
    point-mass context, and ternary contents."""
    systems = [liar_ring(n) for n in range(2, 7)]
    point = {(P, M): F(1)}
    half = {(P, P): F(1, 2), (M, M): F(1, 2)}
    systems.append(validate_system(
        pm_registry("q1", "q2", "q3"),
        [("c1", ("q1", "q2"), point), ("c2", ("q2", "q3"), point)],
    ))
    systems.append(validate_system(
        pm_registry("q1", "q2", "q3"),
        [("c1", ("q1", "q2"), point), ("c2", ("q2", "q3"), half),
         ("c3", ("q3", "q1"), {(M, P): F(1, 3), (P, M): F(2, 3)})],
    ))
    rng = random.Random(53)
    systems += [random_ring(rng, n) for n in (2, 3, 3, 4, 4, 5, 6)]
    unequal = {(P, M): F(1, 2), (M, P): F(1, 2)}
    systems.append(validate_system(
        pm_registry("q1", "q2", "q3", "q4"),
        [("c1", ("q1", "q2"), unequal), ("c2", ("q2", "q3"), point),
         ("c3", ("q3", "q4"), unequal), ("c4", ("q4", "q1"), half)],
    ))
    for _ in range(40):
        systems.append(rand_system(rng, ternary_share=0.5, max_block=3, max_atoms=256))
    return systems


def start_matrix(sys_, lp):
    """The start's basis columns over its rows, both in start order."""
    columns = [a for _, a in lp.start]
    dense = lp_views(sys_, lp).dense
    return [[dense[r][a] for a in columns] for r, _ in lp.start]


def start_weights(sys_, lp):
    """The start's basic solution by forward substitution, atom -> weight."""
    basis = start_matrix(sys_, lp)
    weights = []
    for row, (r, _) in zip(basis, lp.start):
        weights.append(lp.rhs[r] - sum(a * w for a, w in zip(row, weights)))
    return {a: w for (_, a), w in zip(lp.start, weights)}


def test_start_is_a_unit_lower_triangular_basis():
    for sys_ in start_systems():
        lp = build_coupling_lp(sys_)
        basis = start_matrix(sys_, lp)
        size = len(lp.start)
        assert size == 1 + sum(len(blk.table) - 1 for blk in sys_.blocks)
        assert lp.start[-1][0] == len(lp.rhs) - 1  # the mass row
        assert len({r for r, _ in lp.start}) == size
        for i, row in enumerate(basis):
            assert row[i] == 1
            assert all(a == 0 for a in row[i + 1 :])
            assert set(row) <= {0, 1}
        if lp.n_atoms <= 64:
            assert exact_rank(lp_views(sys_, lp).dense) == size


def test_start_weights_are_feasible_for_the_full_lp():
    for sys_ in start_systems():
        sup = build_coupling_lp(sys_)
        weights = start_weights(sys_, sup)
        assert all(w >= 0 for w in weights.values())
        full = full_lp(sys_)
        index = {atom: i for i, atom in enumerate(full.atoms)}
        atoms = lp_views(sys_, sup).atoms
        assert is_feasible(full, {index[atoms[a]]: w for a, w in weights.items()})


def test_start_optimum_matches_the_two_phase_path():
    for sys_ in start_systems():
        lp = build_coupling_lp(sys_)
        sol = solve_lp(lp)
        assert sol.optimum == two_phase_optimum(lp_views(sys_, lp))
        assert verify_solution(lp, sol)


def test_analyze_installs_the_start_and_runs_only_phase_2(monkeypatch):
    events = []
    pivot, iterate = cbd.simplex._Revised.pivot, cbd.simplex._Revised.iterate

    def recording_pivot(tab, r, s, col):
        events.append((col[r], tab.d))
        pivot(tab, r, s, col)

    def recording_iterate(tab, *args):
        events.append("iterate")
        iterate(tab, *args)

    monkeypatch.setattr(cbd.simplex._Revised, "pivot", recording_pivot)
    monkeypatch.setattr(cbd.simplex._Revised, "iterate", recording_iterate)
    for sys_ in start_systems()[:20]:
        lp = build_coupling_lp(sys_)
        if lp.n_atoms == 1:
            continue  # a deterministic system: analyze solves no LP
        rank = exact_rank(lp_views(sys_, lp).dense)
        events.clear()
        analyze(sys_)
        assert events.count("iterate") == 1
        install = events[: events.index("iterate")]
        assert install == [(1, 1)] * rank


def test_bland_fallback_makes_the_dense_tableaus_pivots(monkeypatch):
    # with DEGENERATE_RUN = 0, Bland's rule picks every entering column, the
    # branch that production otherwise takes only after a degenerate run
    systems = start_systems()
    lps = [build_coupling_lp(sys_) for sys_ in systems]
    dantzig = [solves_from_start(sys_, lp)[0] for sys_, lp in zip(systems, lps)]
    monkeypatch.setattr(cbd.simplex, "DEGENERATE_RUN", 0)
    monkeypatch.setattr(referee_simplex, "DEGENERATE_RUN", 0)
    moved = 0
    for sys_, lp, ((want, _), dantzig_pivots) in zip(systems, lps, dantzig):
        (result, pivots), (dense_result, dense_pivots) = solves_from_start(sys_, lp)
        assert pivots == dense_pivots
        assert result == dense_result
        assert result[0] == want
        assert verify_solution(lp, LPSolution(*result))
        moved += pivots != dantzig_pivots
    # Bland's rule is no renamed Dantzig's here: it picks other pivots
    assert moved > 0


def forward_start(lp):
    """The north-west-corner start with every context walked forward, in
    atom-list order, over Fraction masses: the rule before walks were
    oriented, read off the LP's layout and rhs."""
    contexts = []  # (stride, positive cells as (position, rhs, row))
    for r, (stride, _, position) in enumerate(lp.layout[:-1]):
        if position == 0:
            contexts.append((stride, []))
        if lp.rhs[r]:
            contexts[-1][1].append((position, lp.rhs[r], r))
    moves = sorted(
        (sum(p for _, p, _ in cells[: j + 1]), i, j)
        for i, (_, cells) in enumerate(contexts)
        for j in range(len(cells) - 1)
    )
    atom = sum(stride * cells[0][0] for stride, cells in contexts)
    start = []
    for _, i, j in moves:
        stride, cells = contexts[i]
        start.append((cells[j][2], atom))
        atom += (cells[j + 1][0] - cells[j][0]) * stride
    return tuple(start) + ((len(lp.layout) - 1, atom),)


def runs_downward(sys_, lp):
    """Whether some content's outcome index, over its context's positive
    cells in list order, changes and never rises."""
    row = 0
    contexts = itertools.groupby(lp.variables, key=lambda v: v[0])
    for cells, (_, variables) in zip(lp.cells, contexts):
        kept = [cell for cell, b in zip(cells, lp.rhs[row:]) if b]
        row += len(cells)
        for k, (_, q) in enumerate(variables):
            index = [sys_.outcomes[q].index(cell[k]) for cell in kept]
            steps = {(b > a) - (b < a) for a, b in zip(index, index[1:])}
            if -1 in steps and 1 not in steps:
                return True
    return False


def test_start_is_the_forward_rule_where_no_content_runs_downward():
    rng = random.Random(71)
    systems = start_systems()
    systems += [rand_system(rng, ternary_share=0.4, max_block=3) for _ in range(100)]
    systems += [
        cycle_system(n, rank_n_cycle_weights(rng, n, biased=bool(n % 2)))
        for n in (2, 3, 4)
    ]
    forward = backward = 0
    for sys_ in systems:
        lp = build_coupling_lp(sys_)
        if runs_downward(sys_, lp):
            backward += lp.start != forward_start(lp)
        else:
            assert lp.start == forward_start(lp)
            forward += 1
    # and start_systems() walks some contexts backward
    assert forward > 100 and backward >= 5


def test_start_attains_the_optimum_on_equal_unequal_rings_and_trees():
    # the start couples every two contexts comonotonically along their walks,
    # and the walks are oriented along a spanning forest of the pair graph
    systems = [liar_ring(n) for n in range(2, 11)]
    # every rank-3 ring: each order of the content and context labels, and
    # each choice of kinds
    edges = [(0, 1), (1, 2), (2, 0)]
    for contents in itertools.permutations(("q1", "q2", "q3")):
        for contexts in itertools.permutations(("c1", "c2", "c3")):
            for kinds in itertools.product(("equal", "unequal"), repeat=3):
                systems.append(equal_unequal(edges, kinds, contents, contexts))
    rng = random.Random(67)
    systems += [random_ring(rng, rng.randint(2, 9)) for _ in range(100)]
    systems += [random_tree(rng, rng.randint(2, 8)) for _ in range(200)]
    for sys_ in systems:
        lp = build_coupling_lp(sys_)
        weights = start_weights(sys_, lp)
        # the optimum solved to the end, not stopped at lp.bound
        optimum = solve_lp(without_bound(lp)).optimum
        assert sum(lp.objective[a] * w for a, w in weights.items()) == optimum


# ---------------------------------------------------------------------------
# the lower bound the solve stops at


def minus_first(sys_, contents):
    """sys_ with '-1' listed first in the outcome sets of the named contents:
    the same tables, but those contents' cells in the other order."""
    outcomes = {
        q: outs[::-1] if q in contents else outs for q, outs in sys_.outcomes.items()
    }
    return validate_system(
        outcomes, [(blk.context, blk.contents, blk.table) for blk in sys_.blocks]
    )


def test_bound_is_the_optimum_of_every_binary_ring():
    # the bound against the LP solved to the end, and against the closed
    # form read off the context tables by the tests' own Kujala-Dzhafarov
    # formula: D/2 + cnt, D the summed mean gaps (D/2 is delta_sum on a
    # '+1'/'-1' ring); stopped at the bound, the solve returns the same
    # solution
    rings = [liar_ring(n) for n in range(2, 13)]
    edges = [(0, 1), (1, 2), (2, 0)]
    for contents in itertools.permutations(("q1", "q2", "q3")):
        for contexts in itertools.permutations(("c1", "c2", "c3")):
            for kinds in itertools.product(("equal", "unequal"), repeat=3):
                rings.append(equal_unequal(edges, kinds, contents, contexts))
    rng = random.Random(71)
    flipped = 0
    for _ in range(100):
        ring = random_ring(rng, rng.randint(2, 9))
        chosen = [q for q in ring.content_ids if rng.random() < 0.3]
        flipped += bool(chosen)
        rings.append(minus_first(ring, chosen))
    assert 30 < flipped < 100
    for sys_ in rings:
        lp = build_coupling_lp(sys_)
        sol = solve_lp(without_bound(lp))
        assert lp.bound == sol.optimum
        tables = [(blk.context, blk.contents, blk.table) for blk in sys_.blocks]
        assert lp.bound == kd_mean_gap(tables) / 2 + kd_closed_form_cnt(tables)
        assert solve_lp(lp) == sol


def test_bound_is_delta_sum_off_binary_rings():
    # no closed form: a tree, a ring over ternary contents and two disjoint
    # Liar pairs, contextual though every isolated delta is 0
    half = {(P, P): F(1, 2), (M, M): F(1, 2)}
    swap = {(P, M): F(1, 2), (M, P): F(1, 2)}
    tern = ("x", "y", "z")
    systems = [
        random_tree(random.Random(73), 6),
        validate_system(
            {"q1": tern, "q2": tern},
            [
                ("c1", ("q1", "q2"), {("x", "x"): F(1, 2), ("y", "z"): F(1, 2)}),
                ("c2", ("q1", "q2"), {("x", "y"): F(1, 3), ("z", "x"): F(2, 3)}),
            ],
        ),
        validate_system(
            pm_registry("q1", "q2", "q3", "q4"),
            [("c1", ("q1", "q2"), half), ("c2", ("q1", "q2"), swap),
             ("c3", ("q3", "q4"), half), ("c4", ("q3", "q4"), swap)],
        ),
    ]
    optima = []
    for sys_ in systems:
        lp = build_coupling_lp(sys_)
        assert lp.bound == sum(d for *_, d in delta_pairs(sys_))
        sol = solve_lp(without_bound(lp))
        assert solve_lp(lp) == sol
        optima.append(sol.optimum - lp.bound)
    assert optima[-1] == 2  # a bound below the optimum runs phase 2 on


def test_the_solve_stops_at_install_where_the_start_is_optimal(monkeypatch):
    # Liar 2-10 and the ring-sparse corpus: the oriented start attains the
    # closed form, so analyze makes the install pivots and no pricing pass
    from identity_corpus import corpus

    pivots, passes = [], []
    pivot, prices = cbd.simplex._Revised.pivot, cbd.simplex._Revised.prices

    def recording_pivot(tab, r, s, col):
        pivots.append((col[r], tab.d))
        pivot(tab, r, s, col)

    def recording_prices(tab, costs):
        passes.append(tab.pivots)
        return prices(tab, costs)

    monkeypatch.setattr(cbd.simplex._Revised, "pivot", recording_pivot)
    monkeypatch.setattr(cbd.simplex._Revised, "prices", recording_prices)
    systems = [liar_ring(n) for n in range(2, 11)] + corpus()["ring-sparse"]()
    assert len(systems) == 159
    for sys_ in systems:
        lp = build_coupling_lp(sys_)
        pivots.clear()
        passes.clear()
        report = analyze(sys_)
        assert pivots == [(1, 1)] * len(lp.start)
        assert passes == []
        assert report.system_delta == lp.bound


def test_an_objective_below_the_bound_is_an_internal_error(monkeypatch):
    # a bound above the optimum is a fault: the solve refuses to go below it
    sys_ = order_effect_system()
    optimum, _ = system_delta(sys_)
    monkeypatch.setattr(
        cbd.coupling, "_lower_bound", lambda system: optimum + F(1, 1000)
    )
    with pytest.raises(InternalError, match="fell below its lower bound 501/1000"):
        system_delta(sys_)


# ---------------------------------------------------------------------------
# witnesses as certificates


def certificate_systems():
    """The acceptance criteria's systems, a few of each kind, and a seeded
    random set with ternary contents."""
    rng = random.Random(59)
    systems = [order_effect_system(), four_cycle_name_system()]
    systems += [liar_ring(n) for n in range(2, 6)]
    systems += [rand_c2(rng) for _ in range(10)]
    systems += [rand_c2_equal_correlation(rng) for _ in range(10)]
    systems += [rand_deterministic(rng, max_contexts=3, max_block=2) for _ in range(5)]
    systems += [rand_system(rng, ternary_share=0.3, max_block=3) for _ in range(40)]
    return systems


def test_every_witness_is_a_certificate():
    for sys_ in certificate_systems():
        report = analyze(sys_)
        sup = build_coupling_lp(sys_)
        views = lp_views(sys_, sup)
        full = full_lp(sys_)

        def witness_on(atoms):
            index = {atom: i for i, atom in enumerate(atoms)}
            weights = {index[atom]: w for atom, w in report.witness.weights}
            return LPSolution(optimum=report.system_delta, weights=weights)

        assert verify_solution(sup, witness_on(views.atoms))
        assert is_solution(full, witness_on(full.atoms))
        # optimal: no coupling mismatches less, by the two-phase path
        assert report.system_delta == two_phase_optimum(views)
        # the support LP's row rank (test_start_is_a_unit_lower_triangular_basis)
        rank = 1 + sum(len(blk.table) - 1 for blk in sys_.blocks)
        assert len(report.witness.weights) <= rank
