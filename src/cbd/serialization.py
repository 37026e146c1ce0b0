"""System files and report rendering.

A system file is JSON that validates against schema/system.schema.json: a
contents registry and per-context distributions, each object with exactly
the schema's keys.  A probability is an exact string in ASCII digits ("3/4"
or "0.75", systems.P_PATTERN) or a JSON number, read from its literal text,
so 0.1 means exactly 1/10 rather than the nearest binary float.  Omitted
outcome tuples have probability zero.  parse_system_data reads the decoded
JSON in one pass; the rules a schema cannot state (sums and the exact [0, 1]
range, ids and cells listed twice, unknown contents, outcomes outside their
set, arity, the MAX_DIGITS limits) it checks through the systems.py
functions that validate_system calls, each distinct outcome label list once.

Reports render as plain text or as JSON carrying every rational twice: the
exact "num/den" string (lossless round-trip) and a float for reading.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import IO, Iterator

from .analysis import AnalysisReport
from .errors import CbdError, SystemFileError
from .systems import (
    P_GRAMMAR, PairDelta, System, build_system, context_block, format_exact, outcome_set,
)


def format_value(x: Fraction) -> str:
    """Exact value with a decimal reading aid, e.g. '1/3 (0.333333)'."""
    dec = f"{float(x):g}"
    exact = format_exact(x)
    if dec == exact:
        return exact
    return f"{exact} ({dec})"


def rational_json(x: Fraction) -> dict:
    n, d = x.as_integer_ratio()  # n / d is float(x), without its indirection
    return {"exact": format_exact(x), "decimal": n / d}


# ---------------------------------------------------------------------------
# indented JSON

_quote = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses


def _scalar(obj) -> str:
    """One JSON scalar as json.dumps writes it; any other type is refused."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is float:
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(obj, append, newline: str) -> None:
    """Append obj's text; newline is the line break and indent obj starts at.

    A module-level function rather than a closure over append: a closure
    that calls itself is a reference cycle, which keeps each output list
    alive until the garbage collector runs.
    """
    t = type(obj)
    if t is dict:
        if not obj:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            tv = type(value)
            if tv is dict or tv is list or tv is tuple:
                append(sep + _quote(key) + ": ")
                _emit(value, append, inner)
            else:
                append(sep + _quote(key) + ": " + _scalar(value))
            sep = "," + inner
        append(newline + "}")
    elif t is list or t is tuple:
        if not obj:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            tv = type(value)
            if tv is dict or tv is list or tv is tuple:
                append(sep)
                _emit(value, append, inner)
            else:
                append(sep + _scalar(value))
            sep = "," + inner
        append(newline + "]")
    else:
        append(_scalar(obj))


def dumps_indented(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte.

    Python's json module runs its pure-Python encoder whenever indent is
    set; this writer escapes strings with the same C function and takes
    about a third of that time.  Values must be dict (with str keys), list,
    tuple, str, int, float, bool or None, by exact type; anything else
    raises TypeError.
    """
    out: list[str] = []
    _emit(doc, out.append, "\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# system files


# Each object in a system file: its keys, exactly its "required" and its
# "properties" in schema/system.schema.json, each with its JSON type.
SYSTEM_KEYS = {"contents": "[...]", "contexts": "[...]"}
CONTENT_KEYS = {"id": "str", "values": "[str]"}
CONTEXT_KEYS = {"id": "str", "contents": "[str]", "distribution": "[...]"}
CELL_KEYS = {"outcomes": "[str]", "p": "str or number"}


class _Number(str):
    """A JSON number's literal text: a str to to_fraction, which reads it
    exactly, but not a JSON string, so the grammar of "p" strings passes it by."""


def _shape_error(obj, keys: dict, where: str) -> SystemFileError:
    """The error for obj, not a JSON object with exactly these keys and types."""
    if isinstance(obj, dict):
        unknown = [f"has unknown key {key!r}" for key in obj if key not in keys]
        missing = [f"lacks key {key!r}" for key in keys if key not in obj]
        if unknown or missing:
            return SystemFileError(f"{where} {(unknown + missing)[0]}")
    shape = ", ".join(f"{key!r}: {kind}" for key, kind in keys.items())
    return SystemFileError(f"{where} must be {{{shape}}}")


_STR = frozenset({str})


def _strings(value) -> bool:
    """Whether value is a JSON array of JSON strings (a _Number is not one)."""
    return isinstance(value, list) and _STR.issuperset(map(type, value))


def parse_system_data(data, source: str = "<data>") -> System:
    """Build a validated System from decoded JSON data, in one pass: the data
    must validate against schema/system.schema.json (copied by the key sets
    above and systems.P_PATTERN), or SystemFileError names the element; the
    rules a schema cannot state are validate_system's.  Every refusal names
    the source first and keeps its class."""
    try:
        return _read_system(data)
    except CbdError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


def _read_system(data) -> System:
    if not isinstance(data, dict) or data.keys() != SYSTEM_KEYS.keys() or not (
        isinstance(data["contents"], list) and isinstance(data["contexts"], list)
    ):
        raise _shape_error(data, SYSTEM_KEYS, "top level")
    registry: dict[str, tuple[str, ...]] = {}
    label_sets: dict[tuple[str, ...], tuple[str, ...]] = {}  # each list checked once
    for i, entry in enumerate(data["contents"]):
        if not isinstance(entry, dict) or entry.keys() != CONTENT_KEYS.keys() or (
            type(entry["id"]) is not str or not _strings(entry["values"])
        ):
            raise _shape_error(entry, CONTENT_KEYS, f"contents[{i}]")
        q = entry["id"]
        if q in registry:
            raise SystemFileError(f"content {q!r} declared twice")
        key = tuple(entry["values"])
        if not q or (outcomes := label_sets.get(key)) is None:
            outcomes = label_sets[key] = outcome_set(q, entry["values"])
        registry[q] = outcomes
    seen, parsed, blocks = set(), {}, []
    for i, entry in enumerate(data["contexts"]):
        if not isinstance(entry, dict) or entry.keys() != CONTEXT_KEYS.keys() or (
            type(entry["id"]) is not str or not _strings(entry["contents"])
            or not isinstance(entry["distribution"], list)
        ):
            raise _shape_error(entry, CONTEXT_KEYS, f"contexts[{i}]")
        context = entry["id"]
        cells = []
        for j, cell in enumerate(entry["distribution"]):
            if not isinstance(cell, dict) or cell.keys() != CELL_KEYS.keys() or (
                not _strings(cell["outcomes"])
            ):
                where = f"context {context!r} distribution[{j}]"
                raise _shape_error(cell, CELL_KEYS, where)
            cells.append((tuple(cell["outcomes"]), cell["p"]))
        blocks.append(context_block(
            context, entry["contents"], cells, registry, seen, parsed, P_GRAMMAR
        ))
    return build_system(registry, blocks)


def _not_json(token: str):
    """Refuse NaN, Infinity and -Infinity, which json.loads reads but JSON lacks."""
    raise ValueError(f"{token} is not JSON")


def parse_system_text(text: str, source: str = "<string>") -> System:
    try:
        data = json.loads(text, parse_float=_Number, parse_constant=_not_json)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # NaN or Infinity, or an int beyond the digit limit
        raise SystemFileError(f"{source}: {exc}")
    except RecursionError:  # the decoder recurses once per nesting level
        raise SystemFileError(f"{source}: JSON nested too deeply")
    return parse_system_data(data, source=source)


def parse_system(path: str) -> System:
    """Load a system file; '-' reads standard input."""
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SystemFileError(f"{source}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{source}: not UTF-8 ({exc.reason} at byte {exc.start})")
    return parse_system_text(text, source=source)


def system_to_dict(system: System) -> dict:
    contents = [
        {"id": q, "values": list(system.outcomes[q])}
        for q in sorted(system.outcomes)
    ]
    contexts = []
    for blk in system.blocks:
        dist = [
            {"outcomes": list(cell), "p": format_exact(p)}
            for cell, p in sorted(blk.table.items())
        ]
        contexts.append(
            {"id": blk.context, "contents": list(blk.contents), "distribution": dist}
        )
    return {"contents": contents, "contexts": contexts}


def write_system(system: System, fh: IO[str]) -> None:
    """Write system as a system file: the text of
    json.dumps(system_to_dict(system), indent=2), made by dumps_indented,
    and a final newline, in one write."""
    fh.write(dumps_indented(system_to_dict(system)) + "\n")


# ---------------------------------------------------------------------------
# reports


def _connections(report: AnalysisReport) -> Iterator[tuple[str, bool, list[PairDelta]]]:
    """(content, consistent, its pair deltas) for every content, sorted."""
    by_content: dict[str, list[PairDelta]] = {}
    for pd in report.pair_deltas:
        by_content.setdefault(pd.content, []).append(pd)
    for q in sorted(report.connection_consistent):
        yield q, report.connection_consistent[q], by_content.get(q, [])


def report_to_dict(report: AnalysisReport, include_witness: bool = False) -> dict:
    connections = [
        {
            "content": q,
            "consistent": consistent,
            "pairs": [
                {
                    "context_a": pd.context_a,
                    "context_b": pd.context_b,
                    "delta": rational_json(pd.delta),
                }
                for pd in pds
            ],
        }
        for q, consistent, pds in _connections(report)
    ]
    out = {
        "contents": report.n_contents,
        "contexts": report.n_contexts,
        "variables": report.n_variables,
        "deterministic": report.deterministic,
        "consistent": report.consistent,
        "connections": connections,
        "delta_sum": rational_json(report.delta_sum),
        "system_delta": rational_json(report.system_delta),
        "cnt": rational_json(report.cnt),
        "contextual": report.contextual,
    }
    if include_witness:
        out["witness"] = {
            "variables": [
                {"context": c, "content": q} for c, q in report.witness.variables
            ],
            "atoms": [
                {"outcomes": list(atom), "p": rational_json(w)}
                for atom, w in report.witness.weights
            ],
        }
    return out


def format_report_text(report: AnalysisReport, include_witness: bool = False) -> str:
    lines = [
        f"contents: {report.n_contents}   contexts: {report.n_contexts}   "
        f"variables: {report.n_variables}",
        f"deterministic: {'yes' if report.deterministic else 'no'}",
        f"consistently connected: {'yes' if report.consistent else 'no'}",
    ]
    for q, _, pds in _connections(report):
        if not pds:
            lines.append(f"connection {q}: single context")
            continue
        for pd in pds:
            lines.append(
                f"connection {q}: delta({pd.context_a}, {pd.context_b}) = "
                f"{format_value(pd.delta)}"
            )
    lines.append(f"delta_sum = {format_value(report.delta_sum)}")
    lines.append(f"system_delta = {format_value(report.system_delta)}")
    lines.append(f"cnt = {format_value(report.cnt)}")
    verdict = "contextual" if report.contextual else "noncontextual"
    if report.deterministic:
        verdict += " (deterministic fast path)"
    lines.append(f"verdict: {verdict}")
    if include_witness:
        lines.append("witness coupling:")
        lines.append(
            "  variables: "
            + ", ".join(f"{q}@{c}" for c, q in report.witness.variables)
        )
        for atom, w in report.witness.weights:
            lines.append(f"  p[{','.join(atom)}] = {format_value(w)}")
    return "\n".join(lines)
