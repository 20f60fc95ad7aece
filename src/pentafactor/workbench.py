"""Batch verification over graph files and generator specs, plus the exact
enumeration oracle for oddness and 5-cyclicity."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .connectivity import bridges, cyclic_edge_connectivity
from .coloring import UNCOLORABLE, three_edge_color
from .errors import CapExceeded, NotDefined, UnclassifiableP3b
from .factors import complement_two_factor
from .families import gen_chain_family, gen_p3_ring, gen_petersen, simple_cubic_census
from .formats import parse_graph
from .graphs import CubicGraph, girth, is_connected
from .matching import enumerate_perfect_matchings
from .solver import FLAG_COLORABLE, graph_id, solve_5cyc, solve_oddness

ORACLE_DEFAULT_CAP = 24


def oracle_exact(g: CubicGraph, cap: int = ORACLE_DEFAULT_CAP) -> tuple[int, int]:
    """(5-cyclicity, oddness) by exhaustive perfect-matching enumeration."""
    if g.n > cap:
        raise CapExceeded(f"oracle limited to n <= {cap}, got n = {g.n}")
    best5 = None
    bestodd = None
    for m in enumerate_perfect_matchings(g):
        f = complement_two_factor(g, m)
        best5 = f.count5 if best5 is None else min(best5, f.count5)
        bestodd = f.odd_count if bestodd is None else min(bestodd, f.odd_count)
    if best5 is None:
        raise CapExceeded("graph has no perfect matching")
    return best5, bestodd


@dataclass
class BatchRow:
    graph_id: str
    index: int
    n: int
    status: str = "ok"  # ok | skipped
    reason: str | None = None
    colorable: bool | None = None
    girth: int | None = None
    cyclic_connectivity: int | None = None
    census: list | None = None
    achieved5: int | None = None
    bound5: int | None = None
    k_odd: int | None = None
    bound_odd: int | None = None
    odd_note: str | None = None
    oracle_w5: int | None = None
    oracle_w: int | None = None
    flags: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    millis: int | None = None

    def to_json(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if v is not None and v != []}


@dataclass
class BatchReport:
    rows: list[BatchRow]
    modes: tuple[str, ...]
    summary: dict[str, Any]

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "pentafactor.batch/1",
            "modes": list(self.modes),
            "rows": [r.to_json() for r in self.rows],
            "summary": self.summary,
        }

    @property
    def has_violation(self) -> bool:
        return any(r.violations for r in self.rows)


def parse_generator_spec(spec: str) -> list[CubicGraph]:
    """Generator specs: petersen | chain:A[..B] | p3ring:A[..B] | census:N.

    A spec that yields no graph (an empty range, an odd ring size, an
    argument to petersen) raises ValueError.
    """
    name, _, arg = spec.partition(":")
    lo, _, hi = arg.partition("..")
    if name == "petersen" and not arg:
        graphs = [gen_petersen()]
    elif name in ("chain", "p3ring"):
        ks = range(int(lo), int(hi or lo) + 1)
        graphs = ([gen_chain_family(k) for k in ks] if name == "chain"
                  else [gen_p3_ring(c) for c in ks if c % 2 == 0])
    elif name == "census":
        graphs = simple_cubic_census(int(lo))
    else:
        raise ValueError(f"unknown generator spec {spec!r}")
    if not graphs:
        raise ValueError(f"generator spec {spec!r} yields no graph")
    return graphs


def load_graphs(lines: Iterable[str]) -> Iterator[tuple[int, CubicGraph | Exception]]:
    """Parse one graph per line (graph6/sparse6) or one cubicmg block."""
    buffered = [ln.rstrip("\n") for ln in lines]
    text = "\n".join(buffered).strip()
    if text.startswith("cubicmg"):
        # cubicmg blocks are separated by header lines.
        block: list[str] = []
        idx = 0
        for ln in buffered + ["cubicmg"]:
            if ln.strip().startswith("cubicmg") and block:
                try:
                    yield idx, parse_graph("\n".join(block))
                except Exception as exc:
                    yield idx, exc
                idx += 1
                block = []
            if ln.strip():
                block.append(ln)
        return
    idx = 0
    for ln in buffered:
        s = ln.strip()
        if not s:
            continue
        try:
            yield idx, parse_graph(s)
        except Exception as exc:
            yield idx, exc
        idx += 1


def batch_run(
    graphs: Iterable[tuple[int, CubicGraph | Exception]],
    modes: Iterable[str] = ("five",),
    oracle_cap: int = ORACLE_DEFAULT_CAP,
    include_timings: bool = False,
) -> BatchReport:
    """Run the requested pipelines per graph and aggregate bound checks.

    Non-cubic, bridged or disconnected inputs become skipped rows, never
    fatal.  Reports are deterministic for identical input; timings are
    opt-in because they break byte-identical output.
    """
    mode_set: set[str] = set()
    for m in modes:
        if m == "both":
            mode_set |= {"five", "odd"}
        elif m in ("five", "odd", "oracle"):
            mode_set.add(m)
        else:
            raise ValueError(f"unknown mode {m!r}")
    rows: list[BatchRow] = []
    for idx, item in graphs:
        t0 = time.monotonic()
        if isinstance(item, Exception):
            rows.append(BatchRow(
                graph_id="-", index=idx, n=0, status="skipped",
                reason=f"{type(item).__name__}: {item}",
            ))
            continue
        g = item
        row = BatchRow(graph_id=graph_id(g), index=idx, n=g.n)
        if bridges(g):
            row.reason = "has bridge"
        elif not is_connected(g):
            row.reason = "disconnected"
        if row.reason:
            row.status = "skipped"
            rows.append(row)
            continue
        row.girth = girth(g)
        try:
            row.cyclic_connectivity = cyclic_edge_connectivity(g)
        except NotDefined:
            row.cyclic_connectivity = None
        # Only "five" reports census, flags and triangles; only "odd" turns
        # an UnclassifiableP3b into a note.
        certs = []
        for mode, solve, achieved, bound, violation in (
            ("five", solve_5cyc, "achieved5", "bound5", "five-circuit bound"),
            ("odd", solve_oddness, "k_odd", "bound_odd", "oddness bound"),
        ):
            if mode not in mode_set:
                continue
            try:
                factor, cert = solve(g)
            except UnclassifiableP3b as exc:
                if mode != "odd":
                    raise
                row.odd_note = f"UnclassifiableP3b: {exc}"
                continue
            certs.append(cert)
            setattr(row, achieved, cert.achieved)
            setattr(row, bound, cert.bound_floor)
            if not cert.within_bound:
                row.violations.append(violation)
            if mode == "five":
                row.census = list(cert.census) if cert.census else None
                row.flags.extend(sorted(cert.flags))
                if factor.count3 != 0:
                    row.violations.append("triangle in 2-factor")
        # A solver flags its certificate colorable exactly when g is 3-edge-colourable.
        row.colorable = (
            FLAG_COLORABLE in certs[0].flags if certs else three_edge_color(g) is not UNCOLORABLE
        )
        if "oracle" in mode_set and g.n <= oracle_cap:
            w5, w = oracle_exact(g, cap=oracle_cap)
            row.oracle_w5 = w5
            row.oracle_w = w
            if row.achieved5 is not None and w5 > row.achieved5:
                row.violations.append("oracle exceeds solver 5-count")
        if include_timings:
            row.millis = int((time.monotonic() - t0) * 1000)
        rows.append(row)
    summary = {
        "graphs": len(rows),
        "skipped": sum(1 for r in rows if r.status == "skipped"),
        "violations": sum(len(r.violations) for r in rows),
        "max_n": max((r.n for r in rows), default=0),
    }
    return BatchReport(rows=rows, modes=tuple(sorted(mode_set)), summary=summary)
