import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cbd
from cbd import enumerate_variants, liar_system, parse_system_text, uniform_mixture, write_system
from cbd.cli import main
from helpers import (
    M,
    P,
    c2_system,
    cycle_system,
    fold_digits,
    fold_exact,
    four_cycle_name_system,
    long_denominator_system,
    order_effect_system,
    pm_registry,
    rand_deterministic,
    rand_system,
    rank_n_cycle_weights,
)
from cbd import validate_system

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, stdin=None):
    """`python -m cbd` in a subprocess, started beside the package these
    tests import so that it finds the same one."""
    return subprocess.run(
        [sys.executable, "-m", "cbd", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=Path(cbd.__file__).parent.parent,
    )


def write_file(tmp_path, system, name="system.json"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        write_system(system, fh)
    return str(path)


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip() == "cbd 5.0.0"


def test_analyze_contextual_text(tmp_path, capsys):
    path = write_file(tmp_path, order_effect_system())
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3
    assert err == ""
    assert "verdict: contextual" in out
    assert "cnt = 1/2 (0.5)" in out


def test_analyze_noncontextual_text(tmp_path, capsys):
    sys_ = c2_system(F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1, 2), F(1, 4))
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "verdict: noncontextual" in out
    assert "cnt = 0" in out


def test_analyze_deterministic_fast_path(tmp_path, capsys):
    path = write_file(tmp_path, four_cycle_name_system())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "deterministic: yes" in out
    assert "verdict: noncontextual (deterministic fast path)" in out


def test_analyze_json_witness(tmp_path, capsys):
    path = write_file(tmp_path, order_effect_system())
    code, out, _ = run_cli(capsys, "analyze", path, "--json", "--witness")
    assert code == 3
    doc = json.loads(out)
    assert doc["contextual"] is True
    assert doc["cnt"]["exact"] == "1/2"
    atoms = doc["witness"]["atoms"]
    assert sum(F(a["p"]["exact"]) for a in atoms) == 1


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    buf = io.StringIO()
    write_system(order_effect_system(), buf)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 3
    assert "verdict: contextual" in out


def test_analyze_atom_cap_flag(tmp_path, capsys):
    path = write_file(tmp_path, order_effect_system())
    code, out, err = run_cli(capsys, "analyze", path, "--atom-cap", "8")
    assert code == 1
    assert err.startswith("error:")
    # the support LP's 3 x 3 atoms, not the 16 outcome assignments
    assert "9 atoms needed, above the cap of 8" in err
    assert run_cli(capsys, "analyze", path, "--atom-cap", "9")[0] == 3


def test_analyze_atom_cap_must_be_positive(tmp_path, capsys):
    # the deterministic fast path builds no LP, yet the cap is still checked
    for system in (four_cycle_name_system(), order_effect_system()):
        path = write_file(tmp_path, system)
        for cap in ("-5", "0"):
            code, out, err = run_cli(capsys, "analyze", path, "--atom-cap", cap)
            assert (code, out) == (1, "")
            assert "positive" in err


def test_the_environment_sets_no_cap(tmp_path, capsys, monkeypatch):
    # the cap comes from --atom-cap and atom_cap= only: a CBD_ATOM_CAP in the
    # caller's shell, which earlier versions read, changes nothing
    sys_ = order_effect_system()
    path = write_file(tmp_path, sys_)
    monkeypatch.delenv("CBD_ATOM_CAP", raising=False)
    report = cbd.analyze(sys_)
    printed = run_cli(capsys, "analyze", path, "--json", "--witness")
    assert printed[0] == 3
    for raw in ("1", "junk"):
        monkeypatch.setenv("CBD_ATOM_CAP", raw)
        assert cbd.analyze(sys_) == report
        assert run_cli(capsys, "analyze", path, "--json", "--witness") == printed


def test_delta_output(tmp_path, capsys):
    path = write_file(tmp_path, order_effect_system())
    code, out, _ = run_cli(capsys, "delta", path, "--content", "q1")
    assert code == 0
    assert out == "delta(c1, c2) = 0\n"


def test_delta_single_context(tmp_path, capsys):
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [
            ("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)}),
            ("c2", ("q2",), {(P,): F(1, 2), (M,): F(1, 2)}),
        ],
    )
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "delta", path, "--content", "q1")
    assert code == 0
    assert out == "content q1: single context, no pairs\n"


def test_delta_unknown_content(tmp_path, capsys):
    path = write_file(tmp_path, order_effect_system())
    code, _, err = run_cli(capsys, "delta", path, "--content", "q9")
    assert code == 1
    assert "q9" in err


def test_cyclic_rank2_with_criterion(tmp_path, capsys):
    spec = liar_system(2)
    sys_ = uniform_mixture(spec, enumerate_variants(spec))
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "cyclic", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cyclic: yes"
    assert lines[1] == "rank: 2"
    assert lines[2] == "cycle: c1:q1->q2: (q1, q2); c2:q2->q1: (q2, q1)"
    assert lines[3] == "rank-2 criterion: contextual; margin = 2 (lhs 2, rhs 0)"
    assert lines[4] == "cnt = 1"


def test_cyclic_rank4_criterion(tmp_path, capsys):
    spec = liar_system(4)
    sys_ = uniform_mixture(spec, enumerate_variants(spec))
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "cyclic", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "rank: 4"
    assert lines[3:] == [
        "rank-4 criterion: contextual; margin = 2 (lhs 4, rhs 2)",
        "cnt = 1",
    ]


def test_cyclic_criterion_not_applicable(tmp_path, capsys):
    table = {("x", "x"): F(1, 2), ("y", "y"): F(1, 2)}
    sys_ = validate_system(
        {"q1": ("x", "y"), "q2": ("x", "y")},
        [("c1", ("q1", "q2"), table), ("c2", ("q1", "q2"), dict(table))],
    )
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "cyclic", path)
    assert code == 0
    assert out.splitlines()[3].startswith("rank-2 criterion: not applicable (")


def test_cyclic_no(tmp_path, capsys):
    sys_ = validate_system(
        pm_registry("q1", "q2"),
        [("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)})],
    )
    path = write_file(tmp_path, sys_)
    code, out, _ = run_cli(capsys, "cyclic", path)
    assert code == 0
    assert out == "cyclic: no\n"


def test_cyclic_detects_the_ring_once(tmp_path, capsys, monkeypatch):
    # cbd cyclic hands the ring it prints to the criterion, which does not
    # look for it again; both modules' names are spied on
    import cbd.cyclic

    calls = []
    detect = cbd.cyclic.detect_cyclic

    def spy(system):
        calls.append(system)
        return detect(system)

    monkeypatch.setattr(cbd.cli, "detect_cyclic", spy)
    monkeypatch.setattr(cbd.cyclic, "detect_cyclic", spy)
    table = {("x", "x"): F(1, 2), ("y", "y"): F(1, 2)}
    systems = {
        "cnt = 1": uniform_mixture(liar_system(3), enumerate_variants(liar_system(3))),
        "not applicable": validate_system(
            {"q1": ("x", "y"), "q2": ("x", "y")},
            [("c1", ("q1", "q2"), table), ("c2", ("q1", "q2"), dict(table))],
        ),
        "cyclic: no": validate_system(
            pm_registry("q1", "q2"), [("c1", ("q1", "q2"), {(P, P): F(1, 2), (M, M): F(1, 2)})]
        ),
    }
    for text, sys_ in systems.items():
        path = write_file(tmp_path, sys_)
        calls.clear()
        code, out, _ = run_cli(capsys, "cyclic", path)
        assert code == 0 and text in out
        assert len(calls) == 1


def test_liar_stdout(capsys):
    code, out, _ = run_cli(capsys, "liar", "3")
    assert code == 0
    spec = liar_system(3)
    expected = uniform_mixture(spec, enumerate_variants(spec))
    assert parse_system_text(out) == expected


def test_liar_file_output(tmp_path, capsys):
    path = tmp_path / "liar4.json"
    code, out, _ = run_cli(capsys, "liar", "4", "-o", str(path))
    assert code == 0
    assert out == ""
    spec = liar_system(4)
    expected = uniform_mixture(spec, enumerate_variants(spec))
    assert parse_system_text(path.read_text(encoding="utf-8")) == expected


def test_liar_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "liar", "1")
    assert code == 1
    assert err.startswith("error:")
    assert "n >= 2" in err


def test_oracle_matches_analyze(tmp_path, capsys):
    rng = random.Random(79)
    checked = 0
    while checked < 8:
        sys_ = rand_system(rng, max_contents=2, max_contexts=2, max_block=2)
        lp_atoms = 1
        for ctx, q in sys_.variables:
            lp_atoms *= len(sys_.outcomes[q])
        if lp_atoms > 16:
            continue
        path = write_file(tmp_path, sys_, name=f"sys{checked}.json")
        code_a, out_a, _ = run_cli(capsys, "analyze", path)
        assert code_a in (0, 3)
        line_a = next(
            ln for ln in out_a.splitlines() if ln.startswith("system_delta = ")
        )
        code_o, out_o, _ = run_cli(capsys, "oracle", path)
        assert code_o == 0
        line_o = next(
            ln for ln in out_o.splitlines() if ln.startswith("system_delta = ")
        )
        assert line_o == line_a
        checked += 1


def test_oracle_builds_its_own_lp(tmp_path, capsys, monkeypatch):
    # the oracle referees the coupling LP, so a fault in coupling's builder
    # must not reach it: raise the cost of an atom that every optimal
    # coupling of the order-effect system uses, wherever the package looks
    # the builder up, and the oracle still prints the true optimum
    build = cbd.coupling.build_coupling_lp
    raised = ("-1", "+1", "-1", "+1")

    def faulty(*args, **kwargs):
        lp = build(*args, **kwargs)
        objective = list(lp.objective)
        objective[next(i for i in range(lp.n_atoms) if lp.atom(i) == raised)] += 1
        return lp._replace(objective=tuple(objective))

    for module in (cbd, cbd.coupling, cbd.cli):
        monkeypatch.setattr(module, "build_coupling_lp", faulty, raising=False)
    sys_ = order_effect_system()
    assert cbd.analyze(sys_).system_delta == F(3, 4)  # the fault is live
    code, out, _ = run_cli(capsys, "oracle", write_file(tmp_path, sys_))
    assert code == 0
    assert out.splitlines()[-1] == "system_delta = 1/2 (0.5)"


def test_oracle_sizes_the_lp_it_builds(tmp_path, capsys, monkeypatch):
    # check_size counts the LP from coupling_lp's own arguments, so the two
    # cannot drift apart: cmd_oracle hands both the same outcomes and contexts
    calls = {}

    def spy(name):
        real = getattr(cbd.cli, name)

        def record(*args):
            calls[name] = args
            return real(*args)

        return record

    for name in ("check_size", "coupling_lp"):
        monkeypatch.setattr(cbd.cli, name, spy(name))
    sys_ = order_effect_system()
    code, out, _ = run_cli(capsys, "oracle", write_file(tmp_path, sys_))
    assert code == 0 and out.splitlines()[0] == "atoms: 16"
    (outcomes, contexts), built = calls["check_size"], calls["coupling_lp"]
    assert built[0] is outcomes and built[1] is contexts
    assert outcomes == sys_.outcomes
    assert contexts == [(b.context, b.contents, b.table) for b in sys_.blocks]


def test_oracle_answers_a_27_atom_connection_within_a_second(tmp_path, capsys):
    # one content over a, b, c in three single-content contexts: the zero
    # cells hold 19 of the 27 atoms at 0, which leaves 8 columns and 70 bases
    half = F(1, 2)
    sys_ = validate_system(
        {"q": ("a", "b", "c")},
        [
            ("c1", ("q",), {("a",): half, ("b",): half}),
            ("c2", ("q",), {("b",): half, ("c",): half}),
            ("c3", ("q",), {("a",): half, ("c",): half}),
        ],
    )
    path = write_file(tmp_path, sys_)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", path)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines() == ["atoms: 27", "bases examined: 70", "system_delta = 2"]


def test_oracle_refuses_large_systems(tmp_path, capsys):
    # a full-support rank-4 cycle: 256 atoms and no zero cell, so every
    # column stays and comb(256, 13) candidate bases are counted
    sys_ = cycle_system(4, rank_n_cycle_weights(random.Random(4), 4, biased=False))
    path = write_file(tmp_path, sys_)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large" in err


def test_oracle_refuses_before_densifying(tmp_path, capsys, monkeypatch):
    # 12 binary variables: 4,096 atoms, of which the Liar 6 mixture's zero
    # cells leave 2**6 = 64 columns of rank 7, so comb(64, 7) bases
    spec = liar_system(6)
    path = write_file(tmp_path, uniform_mixture(spec, enumerate_variants(spec)))

    def no_rref(matrix):
        raise AssertionError("rref ran before the size check")

    monkeypatch.setattr("cbd.oracle.rref", no_rref)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large" in err
    assert f"{math.comb(64, 7)} candidate bases exceed the limit of 2000000" in err


def test_oracle_refuses_before_building_the_lp(tmp_path, capsys, monkeypatch):
    # a full-support rank-6 cycle: 4,096 atoms, no zero cell and rank 19, so
    # comb(4096, 19) candidate bases
    sys_ = cycle_system(6, rank_n_cycle_weights(random.Random(6), 6, biased=False))
    path = write_file(tmp_path, sys_)
    calls = []
    build = cbd.cli.coupling_lp

    def spy(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cbd.cli, "coupling_lp", spy)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large for the brute-force oracle" in err
    assert calls == []


def test_oracle_answers_seven_point_mass_contexts_with_one_basis(tmp_path, capsys):
    # one content over a, b, c in seven point-mass contexts: a zero cell
    # covers all but one of the 2,187 atoms, so the presolve leaves 1 column
    # and 1 basis, and the guard before the build counts that 1
    sys_ = validate_system(
        {"q": ("a", "b", "c")},
        [(f"c{k}", ("q",), {("abc"[k % 3],): 1}) for k in range(7)],
    )
    code, out, err = run_cli(capsys, "oracle", write_file(tmp_path, sys_))
    assert (code, err) == (0, "")
    # 21 pairs, of which a, b, c fixed 3, 2 and 2 times agree on 3 + 1 + 1
    assert out.splitlines() == ["atoms: 2187", "bases examined: 1", "system_delta = 16"]


def _oracle_systems():
    half = F(1, 2)
    yield order_effect_system()
    yield validate_system(
        {"q": ("a", "b", "c")},
        [
            ("c1", ("q",), {("a",): half, ("b",): half}),
            ("c2", ("q",), {("b",): half, ("c",): half}),
            ("c3", ("q",), {("a",): half, ("c",): half}),
        ],
    )
    for n in (2, 3):
        spec = liar_system(n)
        yield uniform_mixture(spec, enumerate_variants(spec))
    rng = random.Random(97)
    for _ in range(4):
        yield rand_system(rng, max_contents=3, max_contexts=3, ternary_share=0.3, max_atoms=64)
        yield rand_deterministic(rng, max_contents=3, max_contexts=4)


def test_oracle_guard_counts_the_bases_the_oracle_examines(tmp_path, capsys, monkeypatch):
    # the guard's comb(n', rank) is the oracle's own count, and its entry
    # count is the size of coupling_lp's dense rows: at either limit the
    # oracle runs, and one below it the CLI refuses before the build and
    # prints the count
    calls = []
    build = cbd.cli.coupling_lp

    def spy(*args, **kwargs):
        lp = build(*args, **kwargs)
        calls.append(len(lp[1]) * len(lp[0]))  # rows x atoms
        return lp

    monkeypatch.setattr(cbd.cli, "coupling_lp", spy)
    for k, sys_ in enumerate(_oracle_systems()):
        path = write_file(tmp_path, sys_, name=f"sys{k}.json")
        calls.clear()
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0
        entries = calls[0]
        n_bases = int(out.splitlines()[1].removeprefix("bases examined: "))
        for name, count, message in (
            ("DEFAULT_BASIS_LIMIT", n_bases, f"{n_bases} candidate bases exceed"),
            ("DEFAULT_ENTRY_LIMIT", entries, f"a dense LP of {entries} entries exceeds"),
        ):
            saved = getattr(cbd.oracle, name)
            monkeypatch.setattr(cbd.oracle, name, count)
            assert run_cli(capsys, "oracle", path)[:2] == (0, out)
            monkeypatch.setattr(cbd.oracle, name, count - 1)
            calls.clear()
            code, out_below, err = run_cli(capsys, "oracle", path)
            assert (code, out_below, calls) == (1, "", [])
            assert err == (
                "error: system too large for the brute-force oracle: "
                f"{message} the limit of {count - 1}\n"
            )
            monkeypatch.setattr(cbd.oracle, name, saved)


def test_oracle_refuses_a_dense_lp_before_building_it(tmp_path, capsys, monkeypatch):
    # one content over 1,024 outcomes in two point-mass contexts: 2**20
    # atoms, within the atom cap, and 1 basis, but 2,049 dense rows over
    # them, about 2**31 entries, so the CLI refuses before coupling_lp
    outs = tuple(f"o{i}" for i in range(1024))
    sys_ = validate_system(
        {"q": outs},
        [("c1", ("q",), {("o0",): 1}), ("c2", ("q",), {("o1",): 1})],
    )
    path = write_file(tmp_path, sys_)
    calls = []
    monkeypatch.setattr(cbd.cli, "coupling_lp", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "oracle", path)
    assert (code, out, calls) == (1, "", [])
    assert err == (
        "error: system too large for the brute-force oracle: a dense LP of "
        f"{2049 * 2**20} entries exceeds the limit of 4000000\n"
    )


def test_oracle_prints_a_dense_lp_count_beyond_the_digit_limit(tmp_path, capsys):
    # no atom cap stands before the oracle's size rule: Liar 7200's full LP
    # has (1 + 4 * 7200) * 4^7200 dense entries, a count of 4,340 digits
    path = str(tmp_path / "liar7200.json")
    assert run_cli(capsys, "liar", "7200", "-o", path) == (0, "", "")
    code, out, err = run_cli(capsys, "oracle", path)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    head = "error: system too large for the brute-force oracle: a dense LP of "
    digits, _, tail = line.removeprefix(head).partition(" ")
    assert line.startswith(head) and len(digits) == 4340
    assert fold_digits(digits) == (1 + 4 * 7200) * 4**7200
    assert tail == "entries exceeds the limit of 4000000"


def test_oracle_without_a_feasible_basis_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    # a validated system's full LP always holds the product coupling, so only
    # a bug can leave the oracle without a feasible basis
    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setattr(cbd.cli, "enumerate_min", lambda *args: (None, None, 0))
    code, out, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "a bug" in err


def test_liar_count_beyond_the_digit_limit_names_the_cap(tmp_path, capsys):
    # cbd liar writes the 15,000 contexts; analyze needs 2^15000 support
    # atoms, a count of 4,516 digits, more than str() converts by default
    path = str(tmp_path / "liar15000.json")
    assert run_cli(capsys, "liar", "15000", "-o", path) == (0, "", "")
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    digits, _, tail = line.removeprefix("error: ").partition(" ")
    assert line.startswith("error: ") and len(digits) == 4516
    assert fold_digits(digits) == 2**15000
    assert tail.startswith("atoms needed, above the cap of 1048576")


def test_liar_over_the_cap_names_the_override(tmp_path, capsys):
    # Liar 21's support LP has 2^21 atoms, above 2^20; its file is written
    # at any rank
    path = str(tmp_path / "liar21.json")
    assert run_cli(capsys, "liar", "21", "-o", path) == (0, "", "")
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: 2097152 atoms needed, above the cap of 1048576")
    assert "--atom-cap" in line


def test_liar_20_is_analyzed_at_the_default_cap(tmp_path, capsys):
    # 2^20 support atoms, exactly the default cap
    path = str(tmp_path / "liar20.json")
    assert run_cli(capsys, "liar", "20", "-o", path) == (0, "", "")
    code, out, _ = run_cli(capsys, "analyze", path, "--json")
    assert code == 3
    assert json.loads(out)["cnt"]["exact"] == "1"


def test_liar_70_is_written_and_decided_in_closed_form(tmp_path, capsys):
    path = str(tmp_path / "liar70.json")
    assert run_cli(capsys, "liar", "70", "-o", path) == (0, "", "")
    code, out, _ = run_cli(capsys, "cyclic", path)
    assert code == 0
    assert out.splitlines()[-1] == "cnt = 1"


def test_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    # an optimum below delta_sum (0 here) trips analyze's cnt < 0 check
    import cbd.coupling
    from cbd.coupling import LPSolution

    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setattr(
        cbd.coupling, "solve_lp", lambda lp: LPSolution(optimum=F(-1), weights={})
    )
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beat the isolated minimums" in err


def test_a_bound_above_the_optimum_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the solver's own guard: the coupling LP's optimum, 1/2, lies below a
    # faulty lower bound
    import cbd.coupling

    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setattr(cbd.coupling, "_lower_bound", lambda system: F(501, 1000))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fell below its lower bound 501/1000" in err


def test_solver_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a pivot-limit overrun, an unbounded objective or a rejected start
    from cbd.simplex import SimplexError

    def fail(*args, **kwargs):
        raise SimplexError("pivot limit exceeded")

    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setattr(cbd.simplex, "solve_min", fail)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pivot limit exceeded" in err


def test_a_bug_is_not_an_error_line(tmp_path, capsys, monkeypatch):
    # main turns only domain and file errors into an error line; a ValueError
    # from a bug keeps its traceback
    def bug(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setattr(cbd.cli, "analyze", bug)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["analyze", path])
    assert capsys.readouterr().err == ""


def test_deeply_nested_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_nan_probability_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"contents": [{"id": "q", "values": ["x"]}], "contexts": [{"id": "c",'
        ' "contents": ["q"], "distribution": [{"outcomes": ["x"], "p": NaN}]}]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: NaN is not JSON\n"


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "analyze")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "liar", "not-a-number")[0] == 2


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == 1
    assert err.startswith("error:")


def test_module_pipeline():
    liar = run_module("liar", "4")
    assert liar.returncode == 0
    verdict = run_module("analyze", "-", stdin=liar.stdout)
    assert verdict.returncode == 3
    assert "verdict: contextual" in verdict.stdout
    assert "\ncnt = 1\n" in verdict.stdout


def test_module_version():
    proc = run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "cbd 5.0.0"


def test_long_exact_values_print_in_full(tmp_path, capsys):
    path = write_file(tmp_path, long_denominator_system())
    code, out, err = run_cli(capsys, "analyze", path, "--json")
    assert (code, err) == (0, "")
    exact = json.loads(out)["delta_sum"]["exact"]
    assert len(exact.split("/")[1]) > 4300
    delta = F(1, 7**5000) - F(1, 3**9000)
    assert fold_exact(exact) == delta
    code, out, err = run_cli(capsys, "delta", path, "--content", "q")
    assert (code, err) == (0, "")
    assert fold_exact(out.removeprefix("delta(c1, c2) = ").split(" ")[0]) == delta


def test_non_utf8_file_names_the_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8")
    assert len(err.splitlines()) == 1
    # and standard input, which main would otherwise not catch
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "analyze", "-")
    assert (code, out) == (1, "")
    assert err == "error: <stdin>: not UTF-8 (invalid start byte at byte 0)\n"
