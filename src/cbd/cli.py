"""Command-line interface.

Exit codes: 0 success (for `analyze`: noncontextual), 3 contextual verdict,
1 domain or file error, 2 usage error.  `-` means standard input for system
files and standard output for `liar -o`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .analysis import analyze
from .coupling import delta_pairs
from .cyclic import detect_cyclic, ring_criterion
from .epistemic import enumerate_variants, liar_system, uniform_mixture
from .errors import CbdError, InternalError, NotPlusMinusOne
from .oracle import LPTooLarge, TooManyBases, check_size, coupling_lp, enumerate_min
from .serialization import (
    dumps_indented,
    format_report_text,
    format_value,
    parse_system,
    report_to_dict,
    write_system,
)
from .systems import int_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONTEXTUAL = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, and building it costs about 1 ms a call."""
    parser = argparse.ArgumentParser(
        prog="cbd",
        description="Exact contextuality analysis of content-context systems.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="classify a system as contextual or noncontextual"
    )
    p.add_argument("file", help="system file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--witness", action="store_true", help="include an optimal coupling"
    )
    p.add_argument(
        "--atom-cap",
        type=int,
        metavar="N",
        help="refuse coupling LPs needing more than N atoms",
    )

    p = sub.add_parser("delta", help="isolated deltas of one connection")
    p.add_argument("file", help="system file, or - for stdin")
    p.add_argument("--content", required=True, help="content id")

    p = sub.add_parser("cyclic", help="detect ring structure; closed-form criterion")
    p.add_argument("file", help="system file, or - for stdin")

    p = sub.add_parser("liar", help="emit the rank-n Liar system as a file")
    p.add_argument("n", type=int, help="number of contents (>= 2)")
    p.add_argument(
        "-o", "--output", default="-", metavar="FILE", help="output path (- = stdout)"
    )

    p = sub.add_parser(
        "oracle", help="brute-force cross-check of system_delta (small systems)"
    )
    p.add_argument("file", help="system file, or - for stdin")
    return parser


def cmd_analyze(args) -> int:
    system = parse_system(args.file)
    report = analyze(system, atom_cap=args.atom_cap)
    if args.json:
        print(dumps_indented(report_to_dict(report, include_witness=args.witness)))
    else:
        print(format_report_text(report, include_witness=args.witness))
    return EXIT_CONTEXTUAL if report.contextual else EXIT_OK


def cmd_delta(args) -> int:
    system = parse_system(args.file)
    q = args.content
    if q not in system.content_ids:
        raise CbdError(f"content {q!r} does not appear in any context")
    deltas = [pd for pd in delta_pairs(system) if pd.content == q]
    if not deltas:
        print(f"content {q}: single context, no pairs")
    for pd in deltas:
        print(f"delta({pd.context_a}, {pd.context_b}) = {format_value(pd.delta)}")
    return EXIT_OK


def cmd_cyclic(args) -> int:
    system = parse_system(args.file)
    structure = detect_cyclic(system)
    if structure is None:
        print("cyclic: no")
        return EXIT_OK
    print("cyclic: yes")
    print(f"rank: {structure.rank}")
    print("cycle: " + "; ".join(f"{c}: ({a}, {b})" for c, a, b in structure.cycle))
    try:
        v = ring_criterion(system, structure)
    except NotPlusMinusOne as exc:
        print(f"rank-{structure.rank} criterion: not applicable ({exc})")
        return EXIT_OK
    word = "contextual" if v.contextual else "noncontextual"
    print(
        f"rank-{structure.rank} criterion: {word}; margin = {format_value(v.margin)} "
        f"(lhs {format_value(v.lhs)}, rhs {format_value(v.rhs)})"
    )
    print(f"cnt = {format_value(v.cnt)}")
    return EXIT_OK


def cmd_liar(args) -> int:
    spec = liar_system(args.n)
    variants = enumerate_variants(spec)
    system = uniform_mixture(spec, variants)
    if args.output == "-":
        write_system(system, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_system(system, fh)
    return EXIT_OK


def cmd_oracle(args) -> int:
    system = parse_system(args.file)
    contexts = [(blk.context, blk.contents, blk.table) for blk in system.blocks]
    try:
        check_size(system.outcomes, contexts)
        atoms, rows, rhs, costs = coupling_lp(system.outcomes, contexts)
        best, _, n_bases = enumerate_min(costs, rows, rhs)
    except LPTooLarge as exc:
        raise CbdError(
            "system too large for the brute-force oracle: a dense LP of "
            f"{int_text(exc.args[0])} entries exceeds the limit of {exc.args[1]}"
        )
    except TooManyBases as exc:
        raise CbdError(f"system too large for the brute-force oracle: {exc}")
    if best is None:
        # a validated system's full LP holds the product coupling
        raise InternalError("no feasible basis found for a valid system: a bug")
    print(f"atoms: {len(atoms)}")
    print(f"bases examined: {n_bases}")
    print(f"system_delta = {format_value(best)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "analyze": cmd_analyze,
        "delta": cmd_delta,
        "cyclic": cmd_cyclic,
        "liar": cmd_liar,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (CbdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())
