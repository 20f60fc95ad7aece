"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (integers or rationals); no tolerances apply anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The exhaustive criteria read the committed n <= 14 census file, which
``pentafactor gen census 14`` regenerates.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pentafactor.coloring import UNCOLORABLE, three_edge_color
from pentafactor.connectivity import bridges
from pentafactor.errors import UnclassifiableP3b
from pentafactor.factors import complement_two_factor
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import parse_graph
from pentafactor.graphs import CubicGraph, is_petersen
from pentafactor.matching import (
    enumerate_perfect_matchings,
    fractional_objective_value,
    min_weight_perfect_matching,
)
from pentafactor.patterns import classify_occurrences, find_occurrences
from pentafactor.reductions import full_reduce, lift_two_factor
from pentafactor.solver import graph_id, solve_5cyc, solve_oddness, verify_certificate
from pentafactor.workbench import oracle_exact

from tests.hosts import REDUCTION_FIXTURES, exceptional_22_host

CENSUS_PATH = Path(__file__).parent / "data" / "cubic_simple_connected_14.g6"


def census_graphs(max_n: int) -> list[CubicGraph]:
    out = []
    for line in CENSUS_PATH.read_text().splitlines():
        if not line:
            continue
        g = parse_graph(line)
        if g.n <= max_n:
            out.append(g)
    return out


def bridgeless(graphs) -> list[CubicGraph]:
    return [g for g in graphs if not bridges(g)]


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_petersen_exactness():
    t0 = time.monotonic()
    g = gen_petersen()
    assert oracle_exact(g) == (2, 2)
    matchings = enumerate_perfect_matchings(g)
    assert len(matchings) == 6
    for m in matchings:
        factor = complement_two_factor(g, m)
        assert factor.length_counts() == {5: 2}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"oracle (2,2); all 6 matchings give two 5-circuits [{elapsed:.2f}s]")


def test_criterion_2_theorem2_exhaustive():
    graphs = bridgeless(census_graphs(14))
    assert len(graphs) > 500
    checked = 0
    for g in graphs:
        if is_petersen(g):
            continue
        factor, cert = solve_5cyc(g)
        bound = math.floor(Fraction(2 * (g.n - 2), 15))
        assert factor.count3 == 0, graph_id(g)
        assert factor.count5 == cert.achieved <= bound, graph_id(g)
        w5, _ = oracle_exact(g)
        assert w5 <= cert.achieved <= bound, graph_id(g)
        checked += 1
    report(2, f"2(n-2)/15 bound and oracle ordering on {checked} bridgeless "
              "census graphs (n <= 14, Petersen excluded)")


def test_criterion_3_tight_family():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        g = gen_chain_family(k)
        factor, cert = solve_5cyc(g)
        assert cert.achieved == 4 * k
        assert Fraction(2 * (g.n - 2), 15) == 4 * k
        assert factor.count3 == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, f"chain family achieves exactly 4k = 2(n-2)/15 for k=1..3 [{elapsed:.1f}s]")


def test_criterion_4_matching_exactness():
    corpus = bridgeless(census_graphs(14))  # the census tops out at n = 14 <= 16
    total = 0
    for g in corpus:
        rng = random.Random(graph_id(g))
        matchings = enumerate_perfect_matchings(g)
        for _ in range(100):
            w = {e: rng.randrange(0, 13) for e in g.edge_ids}
            _, wt = min_weight_perfect_matching(g, w)
            oracle = min(sum(w[e] for e in m) for m in matchings)
            assert wt == oracle, graph_id(g)
            total += 1
    report(4, f"blossom equals enumeration on {total} weighted instances")


def test_criterion_5_polytope_inequality():
    # The solvers check weight <= fractional before certifying; re-check here across
    # fresh runs that exercise both objectives.
    checked = 0
    for g in [gen_chain_family(1), gen_chain_family(2), gen_p3_ring(4),
              exceptional_22_host()]:
        for solver in (solve_5cyc, solve_oddness):
            _, cert = solver(g)
            if cert.matching_weight is not None:
                assert cert.matching_weight <= cert.fractional_bound
                checked += 1
    report(5, f"matching weight <= objective at the uniform third point "
              f"({checked} solver runs)")


def test_criterion_6_invariant_identity():
    checked = 0
    for g in bridgeless(census_graphs(10)) + [gen_petersen(), gen_p3_ring(2)]:
        for m in enumerate_perfect_matchings(g):
            f = complement_two_factor(g, m)
            # The defining sum of (7 - |C|_o)/2, |C|_o = |C| (+ 7 if even).
            assert f.invariant_I == sum(
                Fraction(7 - c.length - (0 if c.is_odd else 7), 2) for c in f.circuits
            )
            checked += 1
    report(6, f"I(M) = 7k/2 - n/2 on {checked} two-factors (exact rationals)")


def test_criterion_7_lift_back_safety():
    total = 0
    for kind, builder in REDUCTION_FIXTURES:
        trace = full_reduce(builder())
        assert trace.reduced.n <= 14
        assert any(s.kind == kind for s in trace.steps)
        for m in enumerate_perfect_matchings(trace.reduced):
            f = complement_two_factor(trace.reduced, m)
            lifted = lift_two_factor(trace, f)
            assert lifted.count3 == 0
            assert lifted.count5 <= f.count5
            total += 1
    report(7, f"all {total} lifted factors across {len(REDUCTION_FIXTURES)} "
              "fixtures are triangle-free with no extra 5-circuits")


def _oddness_corpus():
    yield gen_chain_family(1)
    yield gen_chain_family(2)
    yield gen_p3_ring(4)
    yield gen_p3_ring(6)
    yield exceptional_22_host()
    for g in bridgeless(census_graphs(14)):
        if not is_petersen(g) and three_edge_color(g) is UNCOLORABLE:
            yield g


def test_criterion_8_oddness_bound_on_reduced():
    checked = skipped = 0
    for g in _oddness_corpus():
        try:
            factor, cert = solve_oddness(g)
        except UnclassifiableP3b:
            skipped += 1
            continue
        if "reduced-to-petersen" in cert.flags or "exceptional" in cert.flags:
            # Petersen is the theorem's exception; the original still obeys
            # the ratio because reductions only shrink the graph.
            assert cert.achieved == 2 and g.n >= (Fraction(35, 6) * 2)
            checked += 1
            continue
        k = cert.achieved
        n_red = cert.reduced_n
        assert k % 2 == 0
        assert k <= math.floor(Fraction(6 * n_red, 35))
        assert Fraction(n_red) >= Fraction(35, 6) * k
        checked += 1
    report(8, f"k <= floor(6n/35), k even, n >= 35k/6 on {checked} reduced "
              f"snarks ({skipped} unclassifiable hosts skipped)")


def test_criterion_9_vertex_count_inequality():
    checked = 0
    for g in [gen_chain_family(1), gen_chain_family(2), gen_p3_ring(4),
              gen_p3_ring(6), exceptional_22_host()]:
        try:
            _, cert = solve_oddness(g)
        except UnclassifiableP3b:
            continue
        if cert.census is None:
            continue
        c5, p1, p2, p3a, p3b, _ = cert.census
        lhs = Fraction(cert.reduced_n)
        rhs = Fraction(5, 3) * c5 + 10 * p1 + 10 * p2 + 9 * p3a + 10 * p3b
        assert lhs >= rhs, (lhs, rhs)
        checked += 1
    report(9, f"n >= 5/3|C5| + 10|P1| + 10|P2| + 9|P3a| + 10|P3b| on "
              f"{checked} reduced generic graphs")


def test_criterion_10_pattern_disjointness():
    # Generic reduced corpus graphs: classification with enforcement on.
    for g in [gen_chain_family(1), gen_p3_ring(4)]:
        trace = full_reduce(g)
        r = trace.reduced
        census = classify_occurrences(
            r,
            find_occurrences(r, "P1"),
            find_occurrences(r, "P2"),
            find_occurrences(r, "P3"),
            mode="oddness",
            enforce_disjoint=True,
        )
        assert not census.exception_22
        occs = census.occurrences
        for i, a in enumerate(occs):
            for b in occs[i + 1:]:
                assert not (a.host_vertices & b.host_vertices)
    # The 22-vertex exception is detected and surfaced, never raised.
    g = exceptional_22_host()
    census = classify_occurrences(
        g,
        find_occurrences(g, "P1"),
        find_occurrences(g, "P2"),
        find_occurrences(g, "P3"),
        mode="oddness",
        enforce_disjoint=True,
    )
    assert census.exception_22
    assert len(census.p2) == 2
    shared = census.p2[0].host_vertices & census.p2[1].host_vertices
    assert len(shared) == 2
    assert len(census.p2[0].edge_set & census.p2[1].edge_set) == 1
    _, cert = solve_oddness(g)
    assert "disjointness-exception-22" in cert.flags
    report(10, "classified occurrences pairwise disjoint; 22-vertex exception "
               "detected and surfaced")
