"""Objective construction, the one bound pipeline, and certificates.

The paper proves its bounds the same way, so one pipeline serves them all:
route Petersen and colourable inputs directly, reduce the rest, classify
P1/P2/P3, weight the perfect-matching polytope, solve one exact matching, and
lift the complementary 2-factor back.  What tells one theorem from another
(bound, counted statistic, census mode, weights, verifier coefficients, and
whether the bound is proved on the reduced graph) is one row of
``_THEOREMS``; ``_solve`` and the verifier read nothing else that differs.
``achieved`` always counts the returned factor on the input graph.  Both take
the census with ``patterns.take_census``.

All bound arithmetic is exact (Fraction); floors are applied only at
certificate boundaries.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable

from .coloring import UNCOLORABLE, even_two_factor_from_coloring, three_edge_color
from .connectivity import bridges, small_cuts
from .errors import CertificationError, HasBridge
from .factors import TwoFactor, complement_two_factor, two_factor_from_edges
from .formats import cubicmg_encode, parse_graph, serialize_graph
from .graphs import CubicGraph, MultiGraph, girth, is_connected, is_petersen
from .matching import (
    WeightVector,
    enumerate_perfect_matchings,
    fractional_objective_value,
    min_weight_perfect_matching,
)
from .patterns import Census, P3A, take_census
from .reductions import TERMINAL_PETERSEN, full_reduce, lift_two_factor

THEOREM_FIVE = "T2-fivecirc"
THEOREM_ODD = "T1-oddness"
THEOREM_NONTRIVIAL = "T4-nontrivial"

P2_TIEBREAK_CAP = 10_000

FLAG_EXCEPTIONAL = "exceptional"
FLAG_COLORABLE = "colorable"
FLAG_REDUCED_PETERSEN = "reduced-to-petersen"
FLAG_BEST_EFFORT = "best-effort"
FLAG_EXCEPTION_22 = "disjointness-exception-22"


def graph_id(g: MultiGraph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Certificate:
    theorem: str
    graph_id: str
    n: int
    bound_value: Fraction
    achieved: int
    census: tuple[int, int, int, int | None, int | None, int] | None = None
    matching_weight: int | None = None
    fractional_bound: Fraction | None = None
    flags: frozenset[str] = frozenset()
    reduced_graph: str | None = None
    reduced_factor: tuple[int, ...] | None = None
    reduced_n: int | None = None
    achieved_reduced: int | None = None
    invariant_I: Fraction | None = None
    trace_summary: tuple = ()
    schema: str = "pentafactor.certificate/1"

    @property
    def bound_floor(self) -> int:
        return math.floor(self.bound_value)

    @property
    def within_bound(self) -> bool:
        """achieved <= floor(bound); an exceptional certificate is exempt."""
        return FLAG_EXCEPTIONAL in self.flags or self.achieved <= self.bound_floor

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "theorem": self.theorem,
            "graph_id": self.graph_id,
            "n": self.n,
            "bound_value": str(self.bound_value),
            "bound_floor": self.bound_floor,
            "achieved": self.achieved,
            "census": list(self.census) if self.census is not None else None,
            "matching_weight": self.matching_weight,
            "fractional_bound": (
                str(self.fractional_bound) if self.fractional_bound is not None else None
            ),
            "flags": sorted(self.flags),
            "reduced_graph": self.reduced_graph,
            "reduced_factor": (
                list(self.reduced_factor) if self.reduced_factor is not None else None
            ),
            "reduced_n": self.reduced_n,
            "achieved_reduced": self.achieved_reduced,
            "invariant_I": str(self.invariant_I) if self.invariant_I is not None else None,
            "trace": [dict(t) for t in self.trace_summary],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Certificate":
        return cls(
            theorem=data["theorem"],
            graph_id=data["graph_id"],
            n=data["n"],
            bound_value=Fraction(data["bound_value"]),
            achieved=data["achieved"],
            census=tuple(data["census"]) if data.get("census") is not None else None,
            matching_weight=data.get("matching_weight"),
            fractional_bound=(
                Fraction(data["fractional_bound"])
                if data.get("fractional_bound") is not None
                else None
            ),
            flags=frozenset(data.get("flags", ())),
            reduced_graph=data.get("reduced_graph"),
            reduced_factor=(
                tuple(data["reduced_factor"])
                if data.get("reduced_factor") is not None
                else None
            ),
            reduced_n=data.get("reduced_n"),
            achieved_reduced=data.get("achieved_reduced"),
            invariant_I=(
                Fraction(data["invariant_I"]) if data.get("invariant_I") is not None else None
            ),
            trace_summary=tuple(tuple(sorted(t.items())) for t in data.get("trace", ()))
            if data.get("trace")
            else (),
            schema=data.get("schema", "pentafactor.certificate/1"),
        )


# -- the theorem table -----------------------------------------------------------
#
# Census counts, everywhere below, are the tuple ``Census.counts``:
# (c5, p1, p2, p3a, p3b, p3).


@dataclass(frozen=True)
class _Theorem:
    """One theorem of the paper: everything that tells its certificate apart."""

    theorem: str
    bound: Callable[[int, int], Fraction]  # (input n, reduced n) -> bound value
    metric: str  # the TwoFactor statistic the bound counts
    mode: str  # census mode, see classify_occurrences
    # Quarter units: per boundary edge of a free 5-circuit, on the e_S of a
    # P1/P2 occurrence, and on each edge of a P3a pair E_S.
    weights: dict[str, int]
    # Verifier: reduced n >= sum(coefficient * census count).
    vertex_coeffs: tuple
    # Solver: the named reduced-factor statistic is at most matching weight / 4
    # + sum(coefficient * census count).
    accounting: tuple[str, tuple]
    # Bound proved on the reduced graph: sets invariant_I, and makes the
    # reduced-to-Petersen route exceptional with achieved_reduced.
    on_reduced: bool
    triangle_free: bool  # the certified factor has no triangle


_FIVE = _Theorem(
    THEOREM_FIVE,
    bound=lambda n, reduced_n: Fraction(2 * (n - 2), 15),
    metric="count5",
    mode="fivecyc",
    weights={"c5": 1, "P1": 4, "P2": 0, "P3a": 0},
    vertex_coeffs=(Fraction(5, 3), 10, 0, 0, 0, 9),
    accounting=("count5", (Fraction(-1, 4), 1, 0, 0, 0, 1)),
    on_reduced=False,
    triangle_free=True,
)

_THEOREMS = {
    THEOREM_FIVE: _FIVE,
    THEOREM_ODD: _Theorem(
        THEOREM_ODD,
        bound=lambda n, reduced_n: Fraction(6 * reduced_n, 35),
        metric="odd_count",
        mode="oddness",
        weights={"c5": 1, "P1": 8, "P2": 4, "P3a": 4},
        vertex_coeffs=(Fraction(5, 3), 10, 10, 9, 10, 0),
        accounting=("invariant_I", (Fraction(-1, 4), 0, 0, 0, 1, 0)),
        on_reduced=True,
        triangle_free=False,
    ),
    THEOREM_NONTRIVIAL: replace(
        _FIVE, theorem=THEOREM_NONTRIVIAL, bound=lambda n, reduced_n: Fraction(n, 10)
    ),
}

_WEIGHTS = {row.mode: row.weights for row in _THEOREMS.values()}


def _dot(coeffs: tuple, counts: tuple) -> Fraction:
    return sum((c * (x or 0) for c, x in zip(coeffs, counts)), Fraction(0))


def _fractional_bound(weights: dict[str, int], counts: tuple) -> Fraction:
    """The weight sum over 3 in closed form: a free 5-circuit of a girth-5
    graph has 5 boundary edges and a P3a pair has 2 edges."""
    c5, p1, p2, p3a = counts[:4]
    return Fraction(
        5 * weights["c5"] * c5 + weights["P1"] * p1 + weights["P2"] * p2
        + 2 * weights["P3a"] * (p3a or 0),
        3,
    )


# -- weights ---------------------------------------------------------------------


def build_weights(g: MultiGraph, census: Census) -> dict[int, int]:
    """Quarter-unit weights from the table row of ``census.mode``: C5
    boundaries, the e_S of each P1 and P2 occurrence, each edge of a P3a pair."""
    table = _WEIGHTS[census.mode]
    w: dict[int, int] = {}

    def add(e: int, amount: int) -> None:
        w[e] = w.get(e, 0) + amount

    for c in census.c5:
        for e in g.boundary_edge_ids(c.vertex_set):
            add(e, table["c5"])
    for s in census.p1:
        add(s.e_S, table["P1"])
    for s in census.p2:
        add(s.e_S, table["P2"])
    for s in census.p3:
        if s.class_tag == P3A:
            for e in s.E_S:
                add(e, table["P3a"])
    return w


# -- P2 tie-break -----------------------------------------------------------------


def _matchings_within(g: MultiGraph, w: WeightVector, slack: int):
    """Every perfect matching of g with weight at most ``slack`` under the
    nonnegative weights w.  An edge heavier than the slack left is never
    tried, and the free vertex with the fewest affordable edges is matched
    first: one with none ends the branch, one with a single edge takes it."""
    free = set(g.vertices)
    chosen: list[int] = []

    def options(v: int, slack: int) -> list[int]:
        return [e for e in g.incident(v)
                if g.other_end(e, v) in free and w.get(e, 0) <= slack]

    def rec(slack: int):
        if not free:
            yield frozenset(chosen)
            return
        for e in min((options(v, slack) for v in sorted(free)), key=len):
            ends = g.endpoints(e)
            free.difference_update(ends)
            chosen.append(e)
            yield from rec(slack - w.get(e, 0))
            chosen.pop()
            free.update(ends)

    yield from rec(slack)


def enumerate_optimal_matchings(
    g: MultiGraph, w: WeightVector, cap: int
) -> tuple[list[frozenset[int]], bool]:
    """All minimum-weight perfect matchings, sorted, and whether more than
    ``cap`` exist; then only the first ``cap + 1`` found are returned.

    One blossom call gives the optimum weight (and raises NoPerfectMatching);
    the optima are then the perfect matchings within that weight.
    """
    _, best = min_weight_perfect_matching(g, w)
    out = list(itertools.islice(_matchings_within(g, w, best), cap + 1))
    out.sort(key=lambda m: tuple(sorted(m)))
    return out, len(out) > cap


def p2_tiebreak(
    g: MultiGraph, w: WeightVector, census: Census
) -> tuple[frozenset[int], int, bool]:
    """A minimum-weight matching under w that closes the fewest P2
    occurrences, its weight under w, and whether more than
    ``P2_TIEBREAK_CAP`` optima exist.  Returns (matching, weight, best_effort).

    Every perfect matching gives exactly two (occurrence, circuit)
    through-pairs per P2 occurrence (test_p2_pair_count_is_constant), so
    that count ties.  The optima differ in how they route each occurrence:
    one whose pattern edge 0-10 is matched is closed, leaving two 5-circuits
    inside it, which can break the invariant_I accounting.  One blossom call
    on the weights w * (p + 1), plus 1 on the host image of edge 0-10 of each
    of the p occurrences, charges exactly the closed occurrences; the extra
    terms sum to at most p, so they act only among the optima under w.  On
    P2 hosts the optima are enumerated only to set the best-effort flag.
    """
    p = len(census.p2)
    scaled = {e: x * (p + 1) for e, x in w.items()}
    for s in census.p2:
        vmap = dict(s.vertex_map)
        ends = sorted((vmap[0], vmap[10]))
        e = next(e for e in s.edge_set if sorted(g.endpoints(e)) == ends)
        scaled[e] = scaled.get(e, 0) + 1
    m, _ = min_weight_perfect_matching(g, scaled)
    capped = p > 0 and enumerate_optimal_matchings(g, w, P2_TIEBREAK_CAP)[1]
    return m, sum(w.get(e, 0) for e in m), capped


# -- the pipeline ----------------------------------------------------------------


def _reduced_bundle(
    reduced: MultiGraph, factor: TwoFactor
) -> tuple[str, tuple[int, ...]]:
    """The reduced graph as cubicmg text, and the factor as indices of its
    edge lines.  The encoding relabels vertices in order, so its lines run in
    endpoint order; parallel edges take their lines in id order."""
    lines = sorted(reduced.edge_ids, key=lambda e: (reduced.endpoints(e), e))
    index_of = {e: i for i, e in enumerate(lines)}
    return cubicmg_encode(reduced), tuple(sorted(index_of[e] for e in factor.edge_ids))


def _validated_input(g: CubicGraph) -> None:
    if not is_connected(g) or bridges(g):
        raise HasBridge("solver requires a 2-edge-connected input")


def _solve(g: CubicGraph, row: _Theorem) -> tuple[TwoFactor, Certificate]:
    """Certify ``row``'s bound on g: the routing, then the check step.

    ``rfactor`` is the factor on the graph the census is taken on (g itself
    when no reduction ran); ``factor`` is its lift to g.
    """
    _validated_input(g)
    metric = attrgetter(row.metric)
    flags: set[str] = set()
    fields: dict[str, Any] = {}
    reduced = g
    if is_petersen(g):
        factor = rfactor = complement_two_factor(g, enumerate_perfect_matchings(g)[0])
        flags.add(FLAG_EXCEPTIONAL)
    elif (coloring := three_edge_color(g)) is not UNCOLORABLE:
        factor = rfactor = even_two_factor_from_coloring(g, coloring)
        flags.add(FLAG_COLORABLE)
        if row.on_reduced:
            fields["invariant_I"] = factor.invariant_I
    else:
        trace = full_reduce(g)
        reduced = trace.reduced
        # The normal form of ``Certificate.from_json``, so a certificate
        # survives its JSON round trip.
        summary = tuple(tuple(sorted(t.items())) for t in trace.summary())
        fields.update(reduced_n=reduced.n, trace_summary=summary)
        if trace.terminal_flag == TERMINAL_PETERSEN:
            # Any lone Petersen factor has two 5-circuits, which can exceed the
            # bound for small hosts; lift all six and keep the best.
            lifts = [
                (lift_two_factor(trace, f), f)
                for f in (complement_two_factor(reduced, m)
                          for m in enumerate_perfect_matchings(reduced))
            ]
            factor, rfactor = min(
                lifts, key=lambda pair: (metric(pair[0]), tuple(sorted(pair[0].edge_ids)))
            )
            flags.add(FLAG_REDUCED_PETERSEN)
            if row.on_reduced:  # the bound is certified on Petersen itself
                flags.add(FLAG_EXCEPTIONAL)
                fields["achieved_reduced"] = metric(rfactor)
        else:
            census = take_census(reduced, row.mode)
            weights = build_weights(reduced, census)
            matching, wt, best_effort = p2_tiebreak(reduced, weights, census)
            rfactor = complement_two_factor(reduced, matching)
            factor = lift_two_factor(trace, rfactor)
            bundle, fidx = _reduced_bundle(reduced, rfactor)
            if best_effort:
                flags.add(FLAG_BEST_EFFORT)
            if census.exception_22:
                flags.add(FLAG_EXCEPTION_22)
            fields.update(
                census=census.counts,
                matching_weight=wt,
                fractional_bound=fractional_objective_value(reduced, weights),
                reduced_graph=bundle,
                reduced_factor=fidx,
                achieved_reduced=metric(rfactor),
            )
            if row.on_reduced:
                fields["invariant_I"] = rfactor.invariant_I
    cert = Certificate(
        row.theorem, graph_id(g), g.n, row.bound(g.n, reduced.n), metric(factor),
        flags=frozenset(flags), **fields,
    )
    _check_claims(row, factor, rfactor, cert)
    return factor, cert


def _check_claims(
    row: _Theorem, factor: TwoFactor, rfactor: TwoFactor, cert: Certificate
) -> None:
    """The check step: every claim of ``cert`` that the proof backs."""
    broken = []
    if row.triangle_free and factor.count3:
        broken.append("factor contains a triangle")
    if rfactor.odd_count % 2:
        broken.append("oddness must be even")
    if not cert.within_bound:
        broken.append(f"{row.metric} bound violated")
    if cert.census is not None:
        if cert.matching_weight > cert.fractional_bound:
            broken.append("polytope inequality violated")
        statistic, coeffs = row.accounting
        slack = _dot(coeffs, cert.census)
        if getattr(rfactor, statistic) > Fraction(cert.matching_weight, 4) + slack:
            broken.append(f"{statistic} accounting violated on the reduced graph")
    if broken:
        raise CertificationError(f"{cert.theorem}: {'; '.join(broken)}")


def solve_5cyc(g: CubicGraph) -> tuple[TwoFactor, Certificate]:
    """A triangle-free 2-factor with at most 2(n-2)/15 five-circuits.

    Colorable inputs get an even 2-factor; snarks are reduced, the reduced
    graph is solved via the linear objective over the matching polytope, and
    the factor is lifted back.  The Petersen graph itself is exceptional
    (achieved 2).
    """
    return _solve(g, _THEOREMS[THEOREM_FIVE])


def solve_oddness(g: CubicGraph) -> tuple[TwoFactor, Certificate]:
    """A 2-factor of g with at most 6n'/35 odd circuits, n' the reduced
    graph's vertex count.  ``achieved`` counts the returned factor: every lift
    step keeps the odd count (``lift_two_factor`` checks it).  An input that
    reduces to Petersen is exceptional.
    """
    return _solve(g, _THEOREMS[THEOREM_ODD])


def nontrivial_certificate(g: CubicGraph) -> tuple[TwoFactor, Certificate] | None:
    """The n/10 certificate for cyclically 4-edge-connected girth-5 inputs,
    or None when the preconditions do not hold.  A connected bridgeless cubic
    graph is cyclically 4-edge-connected iff it has no 2-cut and no
    non-trivial 3-cut."""
    if not is_connected(g) or is_petersen(g) or girth(g) != 5 or bridges(g):
        return None
    if small_cuts(g, 3):
        return None
    return _solve(g, _THEOREMS[THEOREM_NONTRIVIAL])


# -- verification ------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failures: tuple[str, ...]


def verify_certificate(g: CubicGraph, factor: TwoFactor, cert: Certificate) -> Verdict:
    """Recompute every certified quantity independently; list violations."""
    failures: list[str] = []

    def check(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    try:
        rebuilt = two_factor_from_edges(g, factor.edge_ids)
    except Exception as exc:
        return Verdict(False, (f"factor invalid on graph: {exc}",))
    check(cert.n == g.n, "certificate n mismatch")
    row = _THEOREMS.get(cert.theorem)
    if row is None:
        return Verdict(False, (*failures, f"unknown theorem tag {cert.theorem}"))

    if row.triangle_free:
        check(rebuilt.count3 == 0, "factor contains a triangle")
    reduced_n = g.n if cert.reduced_n is None else cert.reduced_n
    check(cert.bound_value == row.bound(g.n, reduced_n), "bound value mismatch")
    check(cert.within_bound, "achieved exceeds floor(bound)")
    check(cert.achieved == getattr(rebuilt, row.metric), f"achieved != factor {row.metric}")
    if row.metric == "odd_count":
        check(cert.achieved % 2 == 0, "oddness must be even")
        # Every lift step keeps the odd count.
        if cert.achieved_reduced is not None:
            check(cert.achieved == cert.achieved_reduced, "achieved != achieved_reduced")
    if cert.matching_weight is not None and cert.fractional_bound is not None:
        check(cert.matching_weight <= cert.fractional_bound,
              "matching weight exceeds fractional bound")

    if cert.reduced_graph is not None and cert.reduced_factor is not None:
        failures.extend(_verify_reduced_bundle(cert, row))
    elif cert.invariant_I is not None:
        check(cert.invariant_I == rebuilt.invariant_I, "invariant_I mismatch with factor")
    return Verdict(not failures, tuple(failures))


def _verify_reduced_bundle(cert: Certificate, row: _Theorem) -> list[str]:
    """The failures found on the bundle's reduced factor: its statistics, the
    census, the vertex-count inequality and the fractional bound, all
    recomputed."""
    try:
        reduced = parse_graph(cert.reduced_graph)
    except Exception as exc:
        return [f"reduced graph unparseable: {exc}"]
    try:
        rfactor = two_factor_from_edges(reduced, frozenset(cert.reduced_factor))
    except Exception as exc:
        return [f"reduced factor invalid: {exc}"]
    failures: list[str] = []
    if cert.reduced_n is not None and reduced.n != cert.reduced_n:
        failures.append("reduced n mismatch")
    if (cert.achieved_reduced is not None
            and getattr(rfactor, row.metric) != cert.achieved_reduced):
        failures.append("achieved_reduced mismatch with reduced factor")
    if cert.invariant_I is not None and rfactor.invariant_I != cert.invariant_I:
        failures.append("invariant_I mismatch with reduced factor")
    if cert.census is None:
        return failures
    counts = take_census(reduced, row.mode).counts
    if counts != cert.census:
        failures.append(f"census mismatch: recomputed {counts}, certified {cert.census}")
    if reduced.n < _dot(row.vertex_coeffs, counts):
        failures.append("vertex-count inequality violated on reduced graph")
    if (cert.fractional_bound is not None
            and cert.fractional_bound != _fractional_bound(row.weights, counts)):
        failures.append("fractional bound does not match census")
    return failures
