import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import cbd.coupling
import cbd.simplex
from cbd import (
    AtomCapExceeded,
    DomainMismatch,
    Marginal,
    NotBinary,
    analyze,
    build_coupling_lp,
    cyclic_criterion,
    delta_pairs,
    enumerate_variants,
    isolated_delta,
    liar_system,
    min_coupling_pair,
    solve_lp,
    system_delta,
    uniform_mixture,
    validate_system,
    verify_solution,
)
from cbd.coupling import LPSolution, dense_rows
from cbd.errors import InternalError
from cbd.oracle import exact_rank
from cbd.simplex import SimplexError
from helpers import (
    M,
    P,
    four_cycle_name_system,
    lp_dense,
    on_full_lp,
    order_effect_oracle_min,
    order_effect_system,
    pm_registry,
    rand_c2,
    rand_c2_equal_correlation,
    rand_deterministic,
    rand_marginal_probs,
    rand_system,
    two_phase_optimum,
)

F = Fraction


def binary_marginal(u, context="c1", content="q1"):
    return Marginal(content=content, context=context, probs={P: F(u), M: 1 - F(u)})


def pair_system(m1_probs, m2_probs, outcomes=(P, M)):
    """Two singleton contexts over one content: the pair-coupling LP."""
    return validate_system(
        {"q1": outcomes},
        [
            ("d1", ("q1",), {(o,): p for o, p in m1_probs.items()}),
            ("d2", ("q1",), {(o,): p for o, p in m2_probs.items()}),
        ],
    )


# ---------------------------------------------------------------------------
# isolated deltas


def test_isolated_delta_equal_marginals():
    assert isolated_delta(binary_marginal(F(1, 3)), binary_marginal(F(1, 3), "c2")) == 0


def test_isolated_delta_binary():
    d = isolated_delta(binary_marginal(F(3, 4)), binary_marginal(F(1, 4), "c2"))
    assert d == F(1, 2)


def test_isolated_delta_ternary_vs_lp():
    probs1 = {"a": F(1, 2), "b": F(1, 2), "c": F(0)}
    probs2 = {"a": F(1, 2), "b": F(0), "c": F(1, 2)}
    m1 = Marginal("q1", "d1", probs1)
    m2 = Marginal("q1", "d2", probs2)
    assert isolated_delta(m1, m2) == F(1, 2)
    # independent route: the two-context coupling LP over the same pair
    delta, _ = system_delta(pair_system(probs1, probs2, ("a", "b", "c")))
    assert delta == F(1, 2)


def test_isolated_delta_domain_mismatch():
    m1 = Marginal("q1", "c1", {P: F(1), M: F(0)})
    m2 = Marginal("q1", "c2", {"a": F(1), "b": F(0)})
    with pytest.raises(DomainMismatch):
        isolated_delta(m1, m2)
    with pytest.raises(DomainMismatch):
        isolated_delta(m1, Marginal("q2", "c2", {P: F(1), M: F(0)}))


def test_isolated_delta_random_pairs_match_lp():
    rng = random.Random(7)
    for _ in range(25):
        u, v = rand_marginal_probs(rng), rand_marginal_probs(rng)
        d = isolated_delta(Marginal("q1", "c1", u), Marginal("q1", "c2", v))
        assert d == abs(u[P] - v[P])
        lp_delta, _ = system_delta(pair_system(u, v))
        assert lp_delta == d


# ---------------------------------------------------------------------------
# minimal coupling tables


def test_min_coupling_identical_fair():
    t = min_coupling_pair(binary_marginal(F(1, 2)), binary_marginal(F(1, 2), "c2"))
    assert t.cells == {
        (P, P): F(1, 2), (P, M): F(0), (M, P): F(0), (M, M): F(1, 2)
    }
    assert t.discrepancy() == 0


def test_min_coupling_disjoint_point_masses():
    t = min_coupling_pair(binary_marginal(F(1)), binary_marginal(F(0), "c2"))
    assert t.cells[(P, M)] == 1
    assert t.discrepancy() == 1


def test_min_coupling_table_and_margins():
    m1 = binary_marginal(F(3, 4))
    m2 = binary_marginal(F(1, 4), "c2")
    t = min_coupling_pair(m1, m2)
    assert t.cells == {
        (P, P): F(1, 4), (P, M): F(1, 2), (M, P): F(0), (M, M): F(1, 4)
    }
    assert t.row_margin() == m1.probs
    assert t.col_margin() == m2.probs
    assert t.discrepancy() == isolated_delta(m1, m2)


def test_min_coupling_requires_binary():
    tern = Marginal("q1", "c1", {"a": F(1, 2), "b": F(1, 2), "c": F(0)})
    with pytest.raises(NotBinary):
        min_coupling_pair(tern, tern)


def test_min_coupling_random_pairs():
    rng = random.Random(13)
    for _ in range(25):
        u, v = rand_marginal_probs(rng), rand_marginal_probs(rng)
        m1, m2 = Marginal("q1", "c1", u), Marginal("q1", "c2", v)
        t = min_coupling_pair(m1, m2)
        assert t.row_margin() == u
        assert t.col_margin() == v
        assert t.discrepancy() == isolated_delta(m1, m2)
        assert all(p >= 0 for p in t.cells.values())


# ---------------------------------------------------------------------------
# the system coupling LP


def test_build_lp_pair_system_shape():
    lp = build_coupling_lp(order_effect_system())
    assert lp.n_atoms == 16
    cells = [r for r in lp.rows if r.label != "mass"]
    assert len(cells) == 8
    assert len(lp.rows) == 9
    assert len(order_effect_system().pairs()) == 2
    assert set(lp.objective) <= {0, 1, 2}
    rows, _ = lp_dense(lp)
    assert exact_rank(rows[:-1]) == 7  # one dependency among the 8 cell rows
    assert exact_rank(rows) == 7      # the mass row is already in their span


def test_build_lp_single_context_unique_coupling():
    table = {(P, P): F(1, 6), (P, M): F(1, 3), (M, P): F(1, 4), (M, M): F(1, 4)}
    sys_ = validate_system(pm_registry("q1", "q2"), [("c1", ("q1", "q2"), table)])
    lp = build_coupling_lp(sys_)
    assert lp.objective == (0, 0, 0, 0)
    sol = solve_lp(lp)
    assert sol.optimum == 0
    recovered = {lp.atoms[i]: w for i, w in sol.weights.items()}
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
    lp = build_coupling_lp(sys_)
    assert lp.n_atoms == 256
    assert len(lp.rows) == 17  # 4 contexts x 4 cells + mass
    assert len(sys_.pairs()) == 4
    assert max(lp.objective) <= 4


def test_atom_cap_enforced():
    with pytest.raises(AtomCapExceeded) as info:
        build_coupling_lp(order_effect_system(), atom_cap=8)
    assert info.value.required == 16
    assert info.value.cap == 8


def test_atom_cap_env_override(monkeypatch):
    monkeypatch.setenv("CBD_ATOM_CAP", "8")
    with pytest.raises(AtomCapExceeded):
        build_coupling_lp(order_effect_system())
    monkeypatch.setenv("CBD_ATOM_CAP", "16")
    assert build_coupling_lp(order_effect_system()).n_atoms == 16


def test_atom_cap_must_be_positive(monkeypatch):
    monkeypatch.delenv("CBD_ATOM_CAP", raising=False)
    for cap in (0, -5, True, False):
        with pytest.raises(ValueError, match="positive"):
            build_coupling_lp(order_effect_system(), atom_cap=cap)
    for raw in ("0", "-5", "x"):
        monkeypatch.setenv("CBD_ATOM_CAP", raw)
        with pytest.raises(ValueError, match="CBD_ATOM_CAP"):
            build_coupling_lp(order_effect_system())


def test_solve_lp_matches_enumeration_on_pair_system():
    full = build_coupling_lp(order_effect_system())
    sup = build_coupling_lp(order_effect_system(), support=True)
    sol = solve_lp(sup)
    assert sol.optimum == order_effect_oracle_min() == F(1, 2)
    assert sol.optimum == two_phase_optimum(full)
    assert verify_solution(sup, sol)
    assert verify_solution(full, on_full_lp(full, sup, sol))


def test_verify_solution_rejects_weights_off_the_atoms():
    full = build_coupling_lp(order_effect_system())
    sup = build_coupling_lp(order_effect_system(), support=True)
    sol = on_full_lp(full, sup, solve_lp(sup))
    assert sol.optimum == two_phase_optimum(full)
    assert verify_solution(full, sol)
    for atom in (-1, 99):
        weights = {**sol.weights, atom: F(1, 2)}
        extra = LPSolution(optimum=sol.optimum, weights=weights)
        assert not verify_solution(full, extra)
    # move an atom's mass to another atom of the same cost: the mass row and
    # the objective still hold, but a cell row does not
    a, w = next(iter(sol.weights.items()))
    b = next(
        c for c in range(full.n_atoms)
        if c != a and full.objective[c] == full.objective[a]
    )
    moved = dict(sol.weights)
    del moved[a]
    moved[b] = moved.get(b, 0) + w
    assert sum(moved.values()) == 1
    assert sum(full.objective[c] * v for c, v in moved.items()) == sol.optimum
    assert not verify_solution(full, LPSolution(optimum=sol.optimum, weights=moved))
    # a negative weight that every row and the optimum accept: take t from
    # atoms a and c and give it to the two atoms that swap their first
    # context's cells, with t above a's weight (negating a weight alone
    # would break a row too)
    k = sum(1 for ctx, _ in full.variables if ctx == full.variables[0][0])
    x = full.atoms[a]
    c = next(
        i for i, y in enumerate(full.atoms) if y[:k] != x[:k] and y[k:] != x[k:]
    )
    y = full.atoms[c]
    index = {atom: i for i, atom in enumerate(full.atoms)}
    t = w + 1
    negative = dict(sol.weights)
    for atom, dt in ((x, -t), (y, -t), (y[:k] + x[k:], t), (x[:k] + y[k:], t)):
        negative[index[atom]] = negative.get(index[atom], 0) + dt
    assert negative[a] < 0
    value = sum(full.objective[i] * v for i, v in negative.items())
    assert not verify_solution(full, LPSolution(optimum=value, weights=negative))
    # a wrong optimum
    off = LPSolution(optimum=sol.optimum + 1, weights=sol.weights)
    assert not verify_solution(full, off)


def test_solve_lp_refuses_a_zero_cell_and_an_empty_start():
    # a full LP's zero-cell rows force atoms to 0, but the tableau holds only
    # the start's rows, so those atoms could enter the basis
    full = build_coupling_lp(order_effect_system())
    assert any(row.rhs == 0 for row in full.rows)
    with pytest.raises(ValueError, match="support LP.*rhs 0"):
        solve_lp(full)
    sup = build_coupling_lp(order_effect_system(), support=True)
    with pytest.raises(ValueError, match="start basis"):
        solve_lp(dataclasses.replace(sup, start=()))


def test_dense_rows_cover_every_atom():
    lp = build_coupling_lp(order_effect_system())
    rows, _ = lp_dense(lp)
    assert dense_rows(lp, lp.rows) == rows
    assert dense_rows(lp, lp.rows[3:6]) == rows[3:6]


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
        lp = build_coupling_lp(sys_)
        weights = []
        for atom in lp.atoms:
            by_var = dict(zip(lp.variables, atom))
            w = F(1)
            for blk in sys_.blocks:
                cell = tuple(by_var[(blk.context, q)] for q in blk.contents)
                w *= blk.prob(cell)
                if w == 0:
                    break
            weights.append(w)
        assert sum(weights) == 1
        for row in lp.rows:
            assert sum(weights[c] for c in row.cols) == row.rhs


def test_lp_lower_bound_and_witness_random():
    rng = random.Random(31)
    for _ in range(15):
        sys_ = rand_system(rng, ternary_share=0.2, max_atoms=128)
        full = build_coupling_lp(sys_)
        sup = build_coupling_lp(sys_, support=True)
        sol = solve_lp(sup)
        assert verify_solution(sup, sol)
        assert verify_solution(full, on_full_lp(full, sup, sol))
        assert sol.optimum == two_phase_optimum(full)
        baseline = sum((d for _, _, _, d in delta_pairs(sys_)), F(0))
        assert sol.optimum >= baseline


# ---------------------------------------------------------------------------
# the support LP


def alive_atoms(lp):
    """The atoms of a full LP that no zero cell forces to 0, in index order."""
    forced = {c for row in lp.rows if row.rhs == 0 for c in row.cols}
    return [i for i in range(lp.n_atoms) if i not in forced]


def liar_ring(n):
    spec = liar_system(n)
    return uniform_mixture(spec, enumerate_variants(spec))


def liar7():
    return liar_ring(7)


def check_lp_definition(sys_, lp, support):
    """The full or support LP against its definition, atom by atom: the
    atoms, each row's columns (the atoms whose cell matches), and each atom's
    objective (its count of System.pairs() with two different outcomes).  A
    context's rows follow its cells in the atoms' order: the product of its
    contents' outcomes, contents sorted."""
    domains = [sys_.outcomes[q] for _, q in lp.variables]
    spots = {
        blk.context: [lp.variables.index((blk.context, q)) for q in blk.contents]
        for blk in sys_.blocks
    }

    def cell_of(atom, blk):
        return tuple(atom[k] for k in spots[blk.context])

    atoms = tuple(
        atom for atom in itertools.product(*domains)
        if not support or all(blk.prob(cell_of(atom, blk)) for blk in sys_.blocks)
    )
    assert lp.atoms == atoms
    want = []
    for blk in sys_.blocks:
        contents = sorted(blk.contents)
        for sorted_cell in itertools.product(*(sys_.outcomes[q] for q in contents)):
            cell = tuple(sorted_cell[contents.index(q)] for q in blk.contents)
            if support and not blk.prob(cell):
                continue
            cols = tuple(
                i for i, atom in enumerate(lp.atoms) if cell_of(atom, blk) == cell
            )
            want.append((cols, blk.prob(cell)))
    want.append((tuple(range(lp.n_atoms)), F(1)))
    assert [(row.cols, row.rhs) for row in lp.rows] == want
    index = {v: i for i, v in enumerate(lp.variables)}
    pairs = [(index[(ca, q)], index[(cb, q)]) for q, ca, cb in sys_.pairs()]
    assert lp.objective == tuple(
        sum(1 for i, j in pairs if atom[i] != atom[j]) for atom in lp.atoms
    )
    assert all(type(c) is int for c in lp.objective)


def check_support_lp(sys_):
    full = build_coupling_lp(sys_)
    sup = build_coupling_lp(sys_, support=True)
    check_lp_definition(sys_, full, support=False)
    check_lp_definition(sys_, sup, support=True)
    alive = alive_atoms(full)
    live_rows = [row for row in full.rows if row.rhs != 0]
    # the atoms, rows and costs the simplex sees, in the same order
    assert sup.variables == full.variables
    assert [(sup.rows[r].label, sup.atoms[a]) for r, a in sup.start] == [
        (full.rows[r].label, full.atoms[a]) for r, a in full.start
    ]
    assert sup.atoms == tuple(full.atoms[i] for i in alive)
    assert sup.objective == tuple(full.objective[i] for i in alive)
    assert [(r.label, r.rhs) for r in sup.rows] == [(r.label, r.rhs) for r in live_rows]
    assert dense_rows(sup, sup.rows) == [
        [row[c] for c in alive] for row in dense_rows(full, live_rows)
    ]
    sol = solve_lp(sup)
    assert verify_solution(sup, sol)
    assert verify_solution(full, on_full_lp(full, sup, sol))
    # phase 1 on the full LP, where that is cheap; Liar 7's 16,384 atoms take
    # seconds, and its test checks the optimum by the closed form instead
    if full.n_atoms <= 256:
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
        zero_cells += len(full.rows) - len(sup.rows)
        ternary += any(len(outs) == 3 for outs in sys_.outcomes.values())
        point_mass += any(len(blk.table) == 1 for blk in sys_.blocks)
    assert zero_cells > 0 and ternary > 0 and point_mass > 10


def test_support_lp_of_liar_7():
    sys_ = liar7()
    full, sup, sol = check_support_lp(sys_)
    assert full.n_atoms == 2**14
    assert sup.n_atoms == 128
    assert len(sup.rows) == 15
    delta_sum = sum(d for *_, d in delta_pairs(sys_))
    assert sol.optimum == cyclic_criterion(sys_).cnt + delta_sum == 1


def test_support_lp_checks_the_cap_on_every_atom():
    with pytest.raises(AtomCapExceeded) as info:
        build_coupling_lp(liar7(), atom_cap=128, support=True)
    assert info.value.required == 2**14


def test_analyze_builds_only_the_support_lp(monkeypatch):
    calls = []
    build = cbd.coupling.build_coupling_lp

    def spy(*args, **kwargs):
        calls.append(kwargs.get("support"))
        return build(*args, **kwargs)

    monkeypatch.setattr(cbd.coupling, "build_coupling_lp", spy)
    report = analyze(liar7())
    assert report.cnt == 1
    assert calls == [True]


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


def start_systems():
    """Seeded random systems and the degenerate cases of the start: Liar
    rings with every table at 1/2 (ties at every step), point-mass contexts
    alone and mixed with others, and ternary contents."""
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
    for _ in range(40):
        systems.append(rand_system(rng, ternary_share=0.5, max_block=3, max_atoms=256))
    return systems


def start_matrix(lp):
    """The start's basis columns over its rows, both in start order."""
    columns = [a for _, a in lp.start]
    rows = dense_rows(lp, [lp.rows[r] for r, _ in lp.start])
    return [[row[a] for a in columns] for row in rows]


def start_weights(lp):
    """The start's basic solution by forward substitution, atom -> weight."""
    basis = start_matrix(lp)
    weights = []
    for row, (r, _) in zip(basis, lp.start):
        weights.append(lp.rows[r].rhs - sum(a * w for a, w in zip(row, weights)))
    return {a: w for (_, a), w in zip(lp.start, weights)}


def test_start_is_a_unit_lower_triangular_basis():
    for sys_ in start_systems():
        for support in (False, True):
            lp = build_coupling_lp(sys_, support=support)
            basis = start_matrix(lp)
            size = len(lp.start)
            assert size == 1 + sum(len(blk.table) - 1 for blk in sys_.blocks)
            assert lp.start[-1][0] == len(lp.rows) - 1  # the mass row
            assert len({r for r, _ in lp.start}) == size
            for i, row in enumerate(basis):
                assert row[i] == 1
                assert all(a == 0 for a in row[i + 1 :])
                assert set(row) <= {0, 1}
            if support and lp.n_atoms <= 64:
                rows, _ = lp_dense(lp)
                assert exact_rank(rows) == size


def test_start_weights_are_feasible_for_the_full_lp():
    for sys_ in start_systems():
        full = build_coupling_lp(sys_)
        weights = start_weights(full)
        assert all(w >= 0 for w in weights.values())
        for row in full.rows:
            assert sum(weights.get(c, 0) for c in row.cols) == row.rhs
        sup = build_coupling_lp(sys_, support=True)
        assert {sup.atoms[a]: w for a, w in start_weights(sup).items()} == {
            full.atoms[a]: w for a, w in weights.items()
        }


def test_start_optimum_matches_the_two_phase_path():
    for sys_ in start_systems():
        lp = build_coupling_lp(sys_, support=True)
        sol = solve_lp(lp)
        assert sol.optimum == two_phase_optimum(lp)
        assert verify_solution(lp, sol)


def test_analyze_installs_the_start_and_runs_only_phase_2(monkeypatch):
    events = []
    pivot, iterate = cbd.simplex._Tableau.pivot, cbd.simplex._Tableau.iterate

    def recording_pivot(tab, r, s):
        events.append((tab.rows[r][s], tab.d))
        pivot(tab, r, s)

    def recording_iterate(tab, n_enter):
        events.append("iterate")
        iterate(tab, n_enter)

    monkeypatch.setattr(cbd.simplex._Tableau, "pivot", recording_pivot)
    monkeypatch.setattr(cbd.simplex._Tableau, "iterate", recording_iterate)
    for sys_ in start_systems()[:20]:
        lp = build_coupling_lp(sys_, support=True)
        if lp.n_atoms == 1:
            continue  # a deterministic system: analyze solves no LP
        rows, _ = lp_dense(lp)
        events.clear()
        analyze(sys_)
        assert events.count("iterate") == 1
        install = events[: events.index("iterate")]
        assert install == [(1, 1)] * exact_rank(rows)


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
        sup = build_coupling_lp(sys_, support=True)
        for lp in (sup, build_coupling_lp(sys_)):
            index = {atom: i for i, atom in enumerate(lp.atoms)}
            weights = {index[atom]: w for atom, w in report.witness.weights}
            sol = LPSolution(optimum=report.system_delta, weights=weights)
            assert verify_solution(lp, sol)
        # optimal: no coupling mismatches less, by the two-phase path
        assert report.system_delta == two_phase_optimum(sup)
        # the support LP's row rank (test_start_is_a_unit_lower_triangular_basis)
        rank = 1 + sum(len(blk.table) - 1 for blk in sys_.blocks)
        assert len(report.witness.weights) <= rank
