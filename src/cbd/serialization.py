"""System files and report rendering.

A system file is JSON: a contents registry and per-context distributions,
with probabilities as exact strings ("3/4" or "0.75").  JSON numbers are
accepted too and parsed from their literal text, so "0.1" means exactly
1/10 rather than the nearest binary float.  Omitted outcome tuples have
probability zero.  The formal schema lives in schema/system.schema.json.

Reports render as plain text or as JSON carrying every rational twice: the
exact "num/den" string (lossless round-trip) and a float for reading.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import IO, Iterator

from .analysis import AnalysisReport, PairDelta
from .errors import SystemFileError
from .systems import System, int_text, validate_system


def format_exact(x: Fraction) -> str:
    """str(x), its digits printed in full however many there are."""
    try:
        return str(x)
    except ValueError:  # more than MAX_DIGITS digits: str() refuses them
        num = int_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{int_text(x.denominator)}"


def format_value(x: Fraction) -> str:
    """Exact value with a decimal reading aid, e.g. '1/3 (0.333333)'."""
    dec = f"{float(x):g}"
    exact = format_exact(x)
    if dec == exact:
        return exact
    return f"{exact} ({dec})"


def rational_json(x: Fraction) -> dict:
    return {"exact": format_exact(x), "decimal": float(x)}


# ---------------------------------------------------------------------------
# system files


def parse_system_data(data, source: str = "<data>") -> System:
    """Build a validated System from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise SystemFileError(f"{source}: top level must be an object")
    for key in ("contents", "contexts"):
        if key not in data or not isinstance(data[key], list):
            raise SystemFileError(f"{source}: missing or non-array {key!r}")
    outcome_sets = {}
    for i, entry in enumerate(data["contents"]):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("id"), str)
            or not isinstance(entry.get("values"), list)
            or not all(isinstance(v, str) for v in entry["values"])
        ):
            raise SystemFileError(
                f"{source}: contents[{i}] must be {{'id': str, 'values': [str]}}"
            )
        if entry["id"] in outcome_sets:
            raise SystemFileError(
                f"{source}: content {entry['id']!r} declared twice"
            )
        outcome_sets[entry["id"]] = tuple(entry["values"])
    blocks = []
    for i, entry in enumerate(data["contexts"]):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("id"), str)
            or not isinstance(entry.get("contents"), list)
            or not all(isinstance(q, str) for q in entry["contents"])
            or not isinstance(entry.get("distribution"), list)
        ):
            raise SystemFileError(
                f"{source}: contexts[{i}] must be "
                f"{{'id': str, 'contents': [str], 'distribution': [...]}}"
            )
        table = {}
        for j, cell in enumerate(entry["distribution"]):
            if (
                not isinstance(cell, dict)
                or not isinstance(cell.get("outcomes"), list)
                or not all(isinstance(o, str) for o in cell["outcomes"])
                or "p" not in cell
            ):
                raise SystemFileError(
                    f"{source}: context {entry['id']!r} distribution[{j}] must "
                    f"be {{'outcomes': [str], 'p': ...}}"
                )
            key = tuple(cell["outcomes"])
            if key in table:
                raise SystemFileError(
                    f"{source}: context {entry['id']!r} lists outcomes "
                    f"{list(key)} twice"
                )
            table[key] = cell["p"]
        blocks.append((entry["id"], tuple(entry["contents"]), table))
    return validate_system(outcome_sets, blocks)


def parse_system_text(text: str, source: str = "<string>") -> System:
    try:
        data = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # an integer literal beyond int's digit limit
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
    json.dump(system_to_dict(system), fh, indent=2)
    fh.write("\n")


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
