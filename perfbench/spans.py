"""In-memory spans and counts around cbd's public functions.

The traced benchmark run replaces each public name where its caller looks it
up (module globals and two `System` methods) with a wrapper that records a
span: name, start, end, parent span and verdict id.  Counts are taken from
the wrapped calls' arguments and return values.  Nothing under `src/`
changes; `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict


class Tracer:
    """Span recorder for one benchmark process.

    `call` runs a function inside a span; `patch` makes every later lookup
    of a name run inside one.  Spans stay in memory until `write`.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, verdict id)
        self.verdict = None
        self.counts: dict = defaultdict(int)  # counts of the current verdict
        self.solutions: list = []  # (LPInstance, LPSolution) awaiting recheck
        self._stack: list[int] = []
        self._patched: list = []

    def call(self, name, fn, *args, observe=None, **kwargs):
        return self._span(name, fn, observe, args, kwargs)

    def _span(self, name, fn, observe, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.verdict)
        if observe is not None:
            observe(self, args, result)
        return result

    def count(self, name, amount):
        self.counts[name] += amount

    def patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._span(name, original, observe, args, kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as a tab-separated line to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tverdict\n")
            for name, start, end, parent, verdict in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{verdict}\n")


class NullTracer:
    """The untraced run's stand-in: calls straight through."""

    def call(self, name, fn, *args, observe=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount):
        pass


def _count_tableau(tracer, args, result):
    costs, rows = args[0], args[1]
    tracer.count("simplex.calls", 1)
    tracer.count("simplex.tableau_cells", len(rows) * len(costs))
    tracer.count("coupling.atoms_alive", len(costs))
    tracer.count("coupling.rows_live", len(rows))


def _count_atoms(tracer, args, result):
    tracer.count("coupling.atoms", result.n_atoms)


def _keep_solution(tracer, args, result):
    tracer.solutions.append((args[0], result))


def _count_lookup(tracer, args, result):
    tracer.count("systems.lookup_calls", 1)


def count_witness(tracer, args, report):
    """Witness size and the largest numerator or denominator, in bits."""
    weights = [w for _, w in report.witness.weights]
    tracer.count("coupling.witness_atoms", len(weights))
    bits = max(
        (max(w.numerator.bit_length(), w.denominator.bit_length()) for w in weights),
        default=0,
    )
    tracer.counts["coupling.witness_max_bits"] = max(
        tracer.counts["coupling.witness_max_bits"], bits
    )


def instrument(tracer: Tracer) -> None:
    """Wrap each public name where its caller looks it up."""
    import cbd.analysis
    import cbd.cli
    import cbd.coupling
    import cbd.simplex
    from cbd.systems import System

    tracer.patch(cbd.cli, "parse_system", "serialization.parse")
    tracer.patch(cbd.cli, "analyze", "analysis", observe=count_witness)
    tracer.patch(cbd.cli, "report_to_dict", "serialization.render")
    tracer.patch(cbd.analysis, "delta_pairs", "coupling.delta_pairs")
    tracer.patch(cbd.analysis, "system_delta", "coupling.system_delta")
    tracer.patch(
        cbd.analysis, "is_consistently_connected", "systems.is_consistently_connected"
    )
    tracer.patch(
        cbd.analysis, "analyze_deterministic", "analysis.analyze_deterministic"
    )
    tracer.patch(
        cbd.coupling, "build_coupling_lp", "coupling.build_coupling_lp",
        observe=_count_atoms,
    )
    tracer.patch(cbd.coupling, "solve_lp", "coupling.solve_lp", observe=_keep_solution)
    tracer.patch(cbd.simplex, "solve_min", "simplex.solve_min", observe=_count_tableau)
    tracer.patch(System, "block", "systems.lookup", observe=_count_lookup)
    tracer.patch(System, "contexts_of", "systems.lookup", observe=_count_lookup)


# span name -> per-layer metric holding the span's self time
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "epistemic.enumerate_variants": "epistemic.enumerate_variants_s",
    "epistemic.uniform_mixture": "epistemic.uniform_mixture_s",
    "serialization.write_system": "serialization.write_system_s",
    "serialization.parse": "serialization.parse_s",
    "serialization.render": "serialization.render_s",
    "analysis": "analysis.self_s",
    "analysis.analyze_deterministic": "analysis.analyze_deterministic_s",
    "systems.is_consistently_connected": "systems.is_consistently_connected_s",
    "systems.lookup": "systems.lookup_s",
    "coupling.delta_pairs": "coupling.delta_pairs_s",
    "coupling.system_delta": "coupling.system_delta_self_s",
    "coupling.build_coupling_lp": "coupling.build_coupling_lp_s",
    "coupling.solve_lp": "coupling.solve_lp_self_s",
    "simplex.solve_min": "simplex.solve_min_s",
}

# counts taken per verdict; witness_max_bits is a maximum, the rest are sums
COUNT_METRICS = (
    "simplex.calls",
    "simplex.tableau_cells",
    "coupling.atoms",
    "coupling.atoms_alive",
    "coupling.rows_live",
    "coupling.witness_atoms",
    "coupling.witness_max_bits",
    "systems.lookup_calls",
    "serialization.bytes_in",
)


def self_times(spans) -> dict[str, float]:
    """Self time per metric: each span's duration less its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for k, (name, start, end, _, _) in enumerate(spans):
        out[SELF_TIME_METRIC[name]] += (end - start) - child[k]
    return out


def top_level_time(spans) -> float:
    """Time covered by spans without a parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)
