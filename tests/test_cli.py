import io
import json
import random
import subprocess
import sys
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
    fold_exact,
    four_cycle_name_system,
    long_denominator_system,
    order_effect_system,
    pm_registry,
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
    assert out.strip() == "cbd 1.0.0"


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
    assert "16" in err and "8" in err


def test_analyze_atom_cap_env(tmp_path, capsys, monkeypatch):
    path = write_file(tmp_path, order_effect_system())
    monkeypatch.setenv("CBD_ATOM_CAP", "8")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert err.startswith("error:")


def test_analyze_atom_cap_must_be_positive(tmp_path, capsys, monkeypatch):
    # the deterministic fast path builds no LP, yet the cap is still checked
    monkeypatch.delenv("CBD_ATOM_CAP", raising=False)
    for system in (four_cycle_name_system(), order_effect_system()):
        path = write_file(tmp_path, system)
        for cap in ("-5", "0"):
            code, out, err = run_cli(capsys, "analyze", path, "--atom-cap", cap)
            assert (code, out) == (1, "")
            assert "positive" in err
        monkeypatch.setenv("CBD_ATOM_CAP", "0")
        code, out, err = run_cli(capsys, "analyze", path)
        assert (code, out) == (1, "")
        assert "CBD_ATOM_CAP must be positive" in err
        monkeypatch.delenv("CBD_ATOM_CAP")


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


def test_oracle_refuses_large_systems(tmp_path, capsys):
    spec = liar_system(4)
    sys_ = uniform_mixture(spec, enumerate_variants(spec))
    path = write_file(tmp_path, sys_)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large" in err


def test_oracle_refuses_before_densifying(tmp_path, capsys, monkeypatch):
    # 12 binary variables: 4,096 atoms and 25 rows, so at least
    # comb(4096, 2) > 2,000,000 candidate bases whatever the rank
    spec = liar_system(6)
    path = write_file(tmp_path, uniform_mixture(spec, enumerate_variants(spec)))

    def no_rref(matrix):
        raise AssertionError("rref ran before the size check")

    monkeypatch.setattr("cbd.oracle.rref", no_rref)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large" in err


def test_oracle_refuses_before_building_the_lp(tmp_path, capsys, monkeypatch):
    # a full-support rank-6 cycle: 4,096 atoms, so comb(4096, 2), about 8.4
    # million, candidate bases at least
    sys_ = cycle_system(6, rank_n_cycle_weights(random.Random(6), 6, biased=False))
    path = write_file(tmp_path, sys_)
    calls = []
    build = cbd.cli.build_coupling_lp

    def spy(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cbd.cli, "build_coupling_lp", spy)
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert "too large for the brute-force oracle" in err
    assert calls == []


def test_liar_count_beyond_the_digit_limit_names_the_cap(capsys, monkeypatch):
    monkeypatch.delenv("CBD_ATOM_CAP", raising=False)
    code, out, err = run_cli(capsys, "liar", "8000")
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "above the cap of 1048576" in line


def test_liar_over_the_cap_names_the_override(capsys, monkeypatch):
    monkeypatch.delenv("CBD_ATOM_CAP", raising=False)
    # 11 contexts x 2 binary variables = 4^11 = 2^22 points, above 2^20
    code, out, err = run_cli(capsys, "liar", "11")
    assert code == 1
    assert out == ""
    assert "CBD_ATOM_CAP" in err


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
    assert proc.stdout.strip() == "cbd 1.0.0"


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
