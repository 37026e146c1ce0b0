"""Checks on the package source itself."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import cbd


def _package_trees():
    for path in sorted(Path(cbd.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


# The public API: every name cbd exports, its submodules aside.
EXPORTS = {
    "AnalysisReport", "CapExceeded", "CbdError", "Consistency", "ContextBlock",
    "ContextConstraint", "CouplingWitness", "CyclicCriterion", "CyclicStructure",
    "DEFAULT_ATOM_CAP", "DeterministicVariant", "DomainMismatch", "DuplicateCell",
    "DuplicateContentInContext", "DuplicateContext", "EmptySystem",
    "EmptyVariantSet", "EpistemicContext", "EpistemicSpec", "InternalError",
    "InvalidArgument", "InvalidProbability", "LPInstance", "LPSolution", "MINUS",
    "Marginal", "NotCyclic", "NotDeterministic", "NotPlusMinusOne", "PLUS",
    "PairDelta", "ProbabilitySumMismatch", "System", "SystemFileError",
    "UnknownContent", "VariableNotInContext", "analyze", "analyze_deterministic",
    "build_coupling_lp", "cyclic_criterion", "delta_pairs", "detect_cyclic",
    "enumerate_variants", "is_consistently_connected", "is_deterministic",
    "liar_system", "marginal", "parse_system", "parse_system_data",
    "parse_system_text", "solve_lp", "system_delta", "system_to_dict",
    "to_fraction", "uniform_mixture", "validate_system", "verify_solution",
    "write_system",
}


def test_exports_are_the_listed_names():
    # a name added to or dropped from cbd's exports takes an edit of EXPORTS
    exported = {
        name
        for name, value in vars(cbd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS


def test_retired_helpers_are_defined_nowhere():
    # 2.0.0 removed these; delta_pairs, the system_delta witness, marginal,
    # System.block, NotPlusMinusOne and CapExceeded replace them
    retired = {
        "isolated_delta", "min_coupling_pair", "JointTable", "expectation",
        "connections", "Connection", "NotBinary", "AtomCapExceeded",
    }
    defined = set()
    for _, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert "System" in defined and defined.isdisjoint(retired)


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
                    and node.func.id == "CapExceeded"
                )
    assert raisers == {"coupling.py:check_atom_cap"}


def test_cap_checked_in_one_place():
    # the cap counts what is built, and only the support LP is built by
    # count: build_coupling_lp is the one caller of check_atom_cap, the
    # variants are not capped (epistemic takes nothing from coupling) and
    # enumerate_variants takes the spec alone
    trees = dict(_package_trees())
    callers = {
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope in _calls_in_scope(tree, "check_atom_cap")
    }
    assert callers == {"coupling.py:build_coupling_lp"}
    assert not [
        node
        for node in ast.walk(trees["epistemic.py"])
        if isinstance(node, ast.ImportFrom) and node.module in ("coupling", "cbd.coupling")
    ]
    func = next(
        node
        for node in trees["epistemic.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "enumerate_variants"
    )
    assert [arg.arg for arg in func.args.args] == ["spec"]
    assert func.args.kwonlyargs == [] and func.args.defaults == []
    assert func.args.vararg is None and func.args.kwarg is None


def _scopes_of(tree, match, scope="<module>"):
    """The innermost enclosing function of every node that match accepts."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = tree.name
    if match(tree):
        yield scope
    for child in ast.iter_child_nodes(tree):
        yield from _scopes_of(child, match, scope)


def _calls_in_scope(tree, func_name):
    """The innermost enclosing function of every call to func_name."""
    return _scopes_of(
        tree,
        lambda node: isinstance(node, ast.Call)
        and func_name
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
    )


def test_probabilities_parsed_in_one_function():
    # context_block, which validate_system and the file parser both call,
    # parses each distinct probability string once; a call to to_fraction
    # anywhere else in the package would bypass that memo
    callers = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _calls_in_scope(tree, "to_fraction")
    }
    assert callers == {"systems.py:context_block"}


def test_marginal_built_in_one_function():
    # one marginal representation: the index holds integer forms, and a
    # Marginal is decoded from one only when marginal() is called
    builders = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _calls_in_scope(tree, "Marginal")
    }
    assert builders == {"systems.py:marginal"}


def test_pair_delta_built_in_two_functions():
    # one pair record: each PairDelta is built once, by the marginal index or
    # by the deterministic path, and the report holds it as built
    builders = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _calls_in_scope(tree, "PairDelta")
    }
    assert builders == {"systems.py:_isolated", "analysis.py:analyze_deterministic"}


def test_report_built_in_one_function():
    # one report constructor: every path, the deterministic one included,
    # goes through analysis._report and its negative-cnt guard
    builders = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _calls_in_scope(tree, "AnalysisReport")
    }
    assert builders == {"analysis.py:_report"}


def _callers_outside_systems(func_name):
    return {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        if name != "systems.py"
        for scope in _calls_in_scope(tree, func_name)
    }


def test_numbers_gated_in_systems_only():
    # one number gate: a mixture weight is refused by the same rules, and
    # with the same error, as a table probability
    assert _callers_outside_systems("InvalidProbability") == set()


def test_common_denominators_in_systems_only():
    # one integer encoding: rationals go over a common denominator through
    # systems.to_form, so no other module takes an lcm of its own
    assert _callers_outside_systems("lcm") == set()


def test_plus_minus_one_refused_in_one_function():
    # one '+1'/'-1' rule: its error is built, and an outcome set compared
    # with {PLUS, MINUS}, in one function
    def is_plus_minus_set(node):
        names = {getattr(elt, "id", None) for elt in getattr(node, "elts", ())}
        return isinstance(node, ast.Set) and names == {"PLUS", "MINUS"}

    trees = list(_package_trees())
    raisers = {
        f"{name}:{scope}"
        for name, tree in trees
        for scope in _calls_in_scope(tree, "NotPlusMinusOne")
    }
    comparers = {
        f"{name}:{scope}"
        for name, tree in trees
        for scope in _scopes_of(tree, is_plus_minus_set)
    }
    assert raisers == comparers == {"systems.py:check_plus_minus_one"}


def test_ring_closed_form_in_cyclic_only():
    # one ring closed form: s_odd is called in one function of cyclic.py,
    # and coupling takes a ring's optimum from there, with neither s_odd nor
    # a '+1'/'-1' refusal of its own
    trees = dict(_package_trees())
    callers = {
        f"{name}:{scope}"
        for name, tree in trees.items()
        for scope in _calls_in_scope(tree, "s_odd")
    }
    assert callers == {"cyclic.py:_closed_form"}
    imported = {
        alias.name
        for node in ast.walk(trees["coupling.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"s_odd", "NotPlusMinusOne"})


def test_oracle_imports_nothing_from_the_package():
    # the basis-enumeration oracle referees the simplex, so it must share no
    # code with the package it checks
    tree = dict(_package_trees())["oracle.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [n for n in names if n.startswith(".") or n.split(".")[0] == "cbd"]
    assert found == []


def test_zero_built_once():
    # one zero: systems.ZERO is the package's Fraction(0), built at module
    # level; the oracle, which shares no code with the package, builds its own
    def is_fraction_zero(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Fraction"
            and (not node.args or getattr(node.args[0], "value", None) == 0)
        )

    builders = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _scopes_of(tree, is_fraction_zero)
    }
    assert builders == {"systems.py:<module>", "oracle.py:<module>"}


def test_indented_json_written_in_one_function():
    # one indented writer: json.dump(s) with indent= runs the pure-Python
    # encoder, so every indented document goes through dumps_indented
    def is_indented_json_call(node):
        return (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)
        )

    callers = {
        f"{name}:{scope}"
        for name, tree in _package_trees()
        for scope in _scopes_of(tree, is_indented_json_call)
    }
    assert callers == set()


def test_no_module_reads_the_environment():
    # a verdict or a refusal depends on the system and the caller's
    # arguments only: no module imports os or reads os.environ or os.getenv
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            found += [f"{name}:import {m}" for m in modules if m.split(".")[0] == "os"]
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{name}:{node.attr}")
    assert found == []


def test_solve_min_requires_a_start():
    # one solver path: solve_min always installs its caller's start, and
    # phase 1 lives in the tests' two-phase referee only; the lower bound
    # (or None) is never left to a default either
    tree = dict(_package_trees())["simplex.py"]
    func = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "solve_min"
    )
    assert [arg.arg for arg in func.args.args] == [
        "costs", "rows", "rhs", "start", "bound",
    ]
    assert func.args.defaults == [] and func.args.kwonlyargs == []
    assert func.args.vararg is None and func.args.kwarg is None


def test_build_coupling_lp_takes_only_the_system_and_the_cap():
    # one coupling LP in coupling.py, the support LP: no mode keyword
    tree = dict(_package_trees())["coupling.py"]
    func = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_coupling_lp"
    )
    assert [arg.arg for arg in func.args.args] == ["system", "atom_cap"]
    assert func.args.kwonlyargs == []
    assert func.args.vararg is None and func.args.kwarg is None


def test_oracle_gets_no_lp_from_coupling():
    # cbd oracle builds the full LP itself (oracle.coupling_lp) and sizes it
    # by oracle.check_size alone, so the CLI takes only the isolated deltas
    # from coupling, and no module keeps a dense form of coupling's rows
    trees = dict(_package_trees())
    imported = [
        alias.name
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "coupling"
        for alias in node.names
    ]
    assert sorted(imported) == ["delta_pairs"]
    defined = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in ("dense_rows", "LPRow")
    ]
    assert defined == []


def test_simplex_keeps_no_dense_tableau():
    # one solver, the revised one: simplex.py defines no dense tableau, and
    # solve_lp passes the rows' cells, never dense rows
    simplex = dict(_package_trees())["simplex.py"]
    classes = {node.name for node in ast.walk(simplex) if isinstance(node, ast.ClassDef)}
    assert classes == {"SimplexError", "_Revised"}
    names = {
        node.name
        for node in ast.walk(simplex)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert [name for name in names if "tableau" in name.lower()] == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_records_are_named_tuples_without_dataclasses():
    # every record is a typing.NamedTuple: no module imports dataclasses,
    # whose import and per-class code generation once took half of cbd's
    # start-up
    found = [
        f"{name}: {module}"
        for name, tree in _package_trees()
        for module in _imported_modules(tree)
        if module.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_imports_stay_at_module_level():
    # start-up is cut by removing work, not by deferring an import into a
    # function; errors.py's two are there because systems imports errors
    deferred = [
        f"{name}:{func.name}: {module}"
        for name, tree in _package_trees()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module in _imported_modules(func)
    ]
    assert deferred == ["errors.py:__init__: .systems"] * 2


# Run by a fresh `python -I`: the modules that importing cbd and cbd.cli adds
# to those the interpreter (and any site hook) loaded before it.
_ADDED_MODULES = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "import cbd, cbd.cli; print(*sorted(set(sys.modules) - before))"
)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(cbd.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _ADDED_MODULES, src],
        capture_output=True, text=True, check=True,
    )
    added = set(proc.stdout.split())
    assert {"cbd", "cbd.cli"} <= added
    assert added.isdisjoint({"dataclasses", "inspect"})
