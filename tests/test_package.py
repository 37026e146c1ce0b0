"""Checks on the package source itself."""

import ast
from pathlib import Path

import cbd


def _package_trees():
    for path in sorted(Path(cbd.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the package raises InternalError instead.
    found = []
    for name, tree in _package_trees():
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_only_coupling_reads_lp_row_columns():
    # one dense form of the coupling LP: LPRow.cols is read in coupling.py only
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        if name != "coupling.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "cols"
    ]
    assert found == []


def test_cap_refused_in_one_function():
    # one atom-cap check: CapExceeded is constructed in a single function
    raisers = set()
    for name, tree in _package_trees():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                raisers.update(
                    f"{name}:{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("CapExceeded", "AtomCapExceeded")
                )
    assert raisers == {"coupling.py:check_atom_cap"}
