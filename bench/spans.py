"""Outside-in span recorder for the traced benchmark run.

``Tracer`` replaces each listed library function, under the same name, in
every ``pentafactor`` module namespace that holds it, so a call made from
inside the library is recorded too (``coloring.bridges_skipping`` as well as
``connectivity.bridges_skipping``).  The library itself is not changed and
the originals are put back on exit.

A span is ``(name, start, end, parent, input)``: ``parent`` is the index of
the innermost open span when the call began (-1 at top level).  Spans stay
in memory until ``write``.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Functions wrapped by the tracer, by defining module.
TRACED = {
    "connectivity": ("bridges", "bridges_skipping", "small_cuts", "cyclic_edge_connectivity"),
    "coloring": ("three_edge_color", "even_two_factor_from_coloring"),
    "graphs": ("enumerate_circuits_up_to", "girth", "is_petersen", "connected_components"),
    "reductions": ("full_reduce", "reduce_cut_step", "reduce_girth_step", "lift_two_factor"),
    "patterns": ("find_occurrences", "classify_occurrences", "select_boundary_edges"),
    "matching": (
        "min_weight_perfect_matching",
        "enumerate_perfect_matchings",
        "has_two_factor",
        "fractional_objective_value",
    ),
    "factors": ("two_factor_from_edges", "complement_two_factor"),
    "solver": (
        "solve_5cyc",
        "solve_oddness",
        "verify_certificate",
        "p2_tiebreak",
        "enumerate_optimal_matchings",
        "graph_id",
    ),
    "workbench": ("batch_run",),
}

# The public entry points the benchmark calls.  Their own self time is work
# that no inner layer accounts for, so ``trace.coverage_ratio`` leaves it out.
ENTRY_POINTS = (
    "solver.solve_5cyc",
    "solver.solve_oddness",
    "solver.verify_certificate",
    "workbench.batch_run",
)


def _count_result(tracer: "Tracer", name: str, parent: str, result) -> None:
    """Counts taken at the call boundary, from the call's result; ``parent``
    is the name of the innermost enclosing traced call."""
    c = tracer.counts
    if name == "connectivity.small_cuts":
        c["connectivity.small_cuts.cuts"] += len(result)
    elif name == "coloring.three_edge_color":
        colorable = bool(result)  # UNCOLORABLE is falsy
        c["coloring.three_edge_color.colorable"] += colorable
        if parent == "reductions.reduce_cut_step":
            c["reductions.side_colorings"] += 1
            c["reductions.side_colorable"] += colorable
    elif name == "graphs.enumerate_circuits_up_to":
        c["graphs.enumerate_circuits_up_to.circuits"] += len(result)
    elif name == "reductions.reduce_cut_step":
        c["reductions.reduce_cut_step.yielded"] += bool(result)  # sentinel is falsy
    elif name == "reductions.full_reduce":
        c["reductions.steps_applied"] += len(result.steps)
    elif name == "patterns.find_occurrences":
        c["patterns.find_occurrences.found"] += len(result)
    elif name == "solver.enumerate_optimal_matchings":
        c["solver.enumerate_optimal_matchings.optima"] += len(result[0])
    elif name == "matching.min_weight_perfect_matching":
        if parent == "solver.enumerate_optimal_matchings":
            c["solver.enumerate_optimal_matchings.blossom_calls"] += 1


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self) -> None:
        # A span slot holds None while the call is open.
        self.spans: list[tuple | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.current_input = ""
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, "-")
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.current_input)
            _count_result(self, name, parent_name, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pentafactor" or key.startswith("pentafactor."))]
        for mod_name, func_names in TRACED.items():
            home = sys.modules[f"pentafactor.{mod_name}"]
            for func_name in func_names:
                original = getattr(home, func_name)
                wrapper = self._wrapper(f"{mod_name}.{func_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------------

    def closed_spans(self) -> list[tuple]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a traced call is still open")
        return self.spans  # type: ignore[return-value]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds, and self seconds split by
        the parent span's name."""
        spans = self.closed_spans()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s = end - start - child_time[i]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            parent_name = spans[parent][0] if parent >= 0 else "-"
            row[f"self_s.under.{parent_name}"] += self_s
        return out

    def layer_seconds(self) -> float:
        """Self time of every span below the entry points: the time that
        some named inner layer accounts for."""
        return sum(row["self_s"] for name, row in self.layer_totals().items()
                   if name not in ENTRY_POINTS)

    def write(self, path, t0: float) -> None:
        """Write the spans as JSON, times in seconds from ``t0``."""
        spans = self.closed_spans()
        names = sorted({s[0] for s in spans})
        inputs = sorted({s[4] for s in spans})
        name_ix = {n: i for i, n in enumerate(names)}
        input_ix = {n: i for i, n in enumerate(inputs)}
        rows = [
            [name_ix[n], round(s - t0, 7), round(e - t0, 7), p, input_ix[i]]
            for n, s, e, p, i in spans
        ]
        payload = {
            "schema": "pentafactor.bench.spans/1",
            "fields": ["name", "start_s", "end_s", "parent", "input"],
            "names": names,
            "inputs": inputs,
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
