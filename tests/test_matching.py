"""Weighted matching exactness against the exhaustive enumerator."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pentafactor.errors import CapExceeded, NoPerfectMatching
from pentafactor.factors import complement_two_factor
from pentafactor.families import gen_petersen
from pentafactor.graphs import CubicGraph, MultiGraph
from pentafactor.matching import (
    enumerate_perfect_matchings,
    fractional_objective_value,
    has_two_factor,
    min_weight_perfect_matching,
)


def brute_matchings(g) -> list[frozenset[int]]:
    """Oracle: choose n/2 edges out of all subsets covering each vertex once."""
    out = []
    for combo in itertools.combinations(g.edge_ids, g.n // 2):
        seen = set()
        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == g.n:
            out.append(frozenset(combo))
    return out


def test_matching_counts(petersen, k4, k33):
    assert len(enumerate_perfect_matchings(k4)) == 3
    assert len(enumerate_perfect_matchings(petersen)) == 6
    assert len(enumerate_perfect_matchings(k33)) == 6
    for g in (petersen, k4, k33):
        assert set(enumerate_perfect_matchings(g)) == set(brute_matchings(g))


def test_enumeration_cap(petersen):
    with pytest.raises(CapExceeded):
        enumerate_perfect_matchings(petersen, cap=3)


def test_uniform_weights(petersen, k4):
    m, wt = min_weight_perfect_matching(k4, {e: 4 for e in k4.edge_ids})
    assert wt == 8 and len(m) == 2
    m, wt = min_weight_perfect_matching(petersen, {e: 4 for e in petersen.edge_ids})
    assert wt == 20 and len(m) == 5


def test_zero_weight_spoke_preferred(petersen):
    w = {e: 4 for e in petersen.edge_ids}
    w[5] = 0  # spoke 0-5 in the fixed labeling
    m, wt = min_weight_perfect_matching(petersen, w)
    assert 5 in m and wt == 16


def test_tie_break_is_lexicographic(petersen, k4):
    for g in (k4, petersen):
        m, _ = min_weight_perfect_matching(g, {})
        best = min(enumerate_perfect_matchings(g), key=lambda s: tuple(sorted(s)))
        assert m == best


def test_exactness_random_weights(petersen, k4, k33, cube):
    rng = random.Random(20260809)
    for g in (petersen, k4, k33, cube):
        all_matchings = enumerate_perfect_matchings(g)
        for _ in range(50):
            w = {e: rng.randrange(0, 13) for e in g.edge_ids}
            _, wt = min_weight_perfect_matching(g, w)
            oracle = min(sum(w[e] for e in m) for m in all_matchings)
            assert wt == oracle


def test_multigraph_matching(theta):
    w = {0: 5, 1: 2, 2: 9}
    m, wt = min_weight_perfect_matching(theta, w)
    assert m == frozenset({1}) and wt == 2


def test_no_perfect_matching():
    # Theta plus a pendant structure is not constructible as cubic; use a
    # non-cubic MultiGraph: a triangle has no perfect matching.
    tri = MultiGraph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NoPerfectMatching):
        min_weight_perfect_matching(tri, {})


def test_fractional_objective(petersen):
    w = {e: 4 for e in petersen.edge_ids}
    assert fractional_objective_value(petersen, w) == Fraction(60, 3) == 20
    assert fractional_objective_value(petersen, {}) == 0


def test_polytope_inequality_random(petersen, cube):
    rng = random.Random(7)
    for g in (petersen, cube):
        for _ in range(20):
            w = {e: rng.randrange(0, 9) for e in g.edge_ids}
            _, wt = min_weight_perfect_matching(g, w)
            assert wt <= fractional_objective_value(g, w)


def test_two_factor_existence(petersen, k4):
    # Whole graph: cubic bridgeless always has a 2-factor.
    assert has_two_factor(petersen)
    assert has_two_factor(k4)
    # Petersen minus a 5-circuit leaves the other pentagon: still a 2-factor.
    assert has_two_factor(petersen, frozenset({0, 1, 2, 3, 4}))
    # Removing 0 and 2 leaves vertex 1 with a single edge: no 2-factor.
    assert not has_two_factor(petersen, frozenset({0, 2}))


def test_two_factor_existence_matches_matchings(petersen, cube):
    # A cubic graph has a 2-factor containing circuit C iff some perfect
    # matching avoids all of C's vertices' non-circuit edges; cross-check via
    # complements over all matchings.
    from pentafactor.graphs import enumerate_circuits_up_to

    for g in (petersen, cube):
        factors = [complement_two_factor(g, m) for m in enumerate_perfect_matchings(g)]
        for c in enumerate_circuits_up_to(g, 6):
            in_some_factor = any(c.edge_set <= f.edge_ids for f in factors)
            assert in_some_factor == has_two_factor(g, c.vertex_set)


def gadget_has_two_factor(g, removed_vertices=frozenset()):
    """Reference: Tutte's degree gadget.  Each kept vertex of degree d becomes
    d edge-end nodes plus d - 2 core nodes joined completely; each kept edge
    joins its two end nodes.  A perfect matching of the gadget keeps exactly
    two edges per vertex."""
    import networkx as nx

    keep = [v for v in g.vertices if v not in removed_vertices]
    if not keep:
        return True
    keep_set = set(keep)
    inc = {v: [] for v in keep}
    kept_edges = []
    for eid, (u, v) in g.edge_items():
        if u in keep_set and v in keep_set:
            inc[u].append(eid)
            inc[v].append(eid)
            kept_edges.append(eid)
    if any(len(inc[v]) < 2 for v in keep):
        return False
    gx = nx.Graph()
    for v in keep:
        for e in inc[v]:
            gx.add_node(("h", v, e))
        for j in range(len(inc[v]) - 2):
            for e in inc[v]:
                gx.add_edge(("c", v, j), ("h", v, e))
    for eid in kept_edges:
        u, v = g.endpoints(eid)
        gx.add_edge(("h", u, eid), ("h", v, eid))
    mate = nx.max_weight_matching(gx, maxcardinality=True)
    return 2 * len(mate) == gx.number_of_nodes()


def test_two_factor_existence_matches_gadget():
    # Every cubic multigraph on n <= 10, disconnected ones included, with
    # nothing removed, with each short circuit's vertex set removed, and with
    # seeded random vertex subsets removed.
    from pentafactor.families import cubic_multigraph_levels
    from pentafactor.graphs import enumerate_circuits_up_to

    rng = random.Random(23)
    graphs = [g for gs in cubic_multigraph_levels(10).values() for g in gs]
    assert len(graphs) == 180
    cases = 0
    for g in graphs:
        removals = [frozenset()]
        removals += [c.vertex_set for c in enumerate_circuits_up_to(g, 9)]
        removals += [frozenset(v for v in g.vertices if rng.random() < 0.3) for _ in range(5)]
        for removed in removals:
            assert has_two_factor(g, removed) == gadget_has_two_factor(g, removed)
            cases += 1
    assert cases == 4967


def test_two_factor_existence_rejects_degree_four():
    # Two vertices joined by four parallel edges: degree 4 on both.
    g = MultiGraph([(0, 1)] * 4)
    with pytest.raises(ValueError):
        has_two_factor(g)
    assert has_two_factor(g, frozenset({0, 1}))


def test_import_defers_networkx():
    # networkx is most of the package's import time; only the blossom call
    # needs it, so it imports it on first use.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pentafactor; print('networkx' in sys.modules)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
