"""Family generators and the census machinery."""

from __future__ import annotations

from collections import Counter

import networkx as nx
import pytest

from pentafactor.connectivity import bridges, cyclic_edge_connectivity, small_cuts
from pentafactor.coloring import UNCOLORABLE, three_edge_color
from pentafactor.families import (
    _P3_COPY_EDGES,
    _P3_COPY_STUBS,
    connected_cubic_multigraphs,
    cubic_multigraph_levels,
    gen_chain_family,
    gen_p3_ring,
    gen_petersen,
    simple_cubic_census,
)
from pentafactor.graphs import CubicGraph, girth, is_connected, is_isomorphic, is_petersen
from pentafactor.matching import enumerate_perfect_matchings
from pentafactor.patterns import take_census
from pentafactor.solver import solve_5cyc, solve_oddness
from pentafactor.workbench import oracle_exact

# Connected simple cubic graphs on 4..14 vertices (classical values).
KNOWN_SIMPLE_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


def test_petersen_properties():
    g = gen_petersen()
    assert (g.n, girth(g)) == (10, 5)
    assert len(enumerate_perfect_matchings(g)) == 6
    assert three_edge_color(g) is UNCOLORABLE
    assert cyclic_edge_connectivity(g) == 5
    assert is_petersen(g)


@pytest.mark.parametrize("k", [1, 2])
def test_chain_family_structure(k):
    g = gen_chain_family(k)
    assert g.n == 30 * k + 2
    assert not bridges(g)
    assert len(take_census(g, "fivecyc").p1) == 3 * k


def test_chain_family_param_validation():
    with pytest.raises(ValueError):
        gen_chain_family(0)


@pytest.mark.parametrize("copies", [2, 4, 6])
def test_p3_ring_structure(copies):
    g = gen_p3_ring(copies)
    assert g.n == 9 * copies
    assert not bridges(g)
    assert small_cuts(g, 2) == []  # 3-edge-connected by construction
    assert girth(g) == 5


def retrying_p3_ring(copies):
    """Reference: the antipodal wiring retried under up to eight rotations
    until it leaves no bridge and no 2-edge-cut."""
    a, b, c = _P3_COPY_STUBS
    half = copies // 2
    for shift in range(8):
        edges = []
        for i in range(copies):
            edges.extend((u + 9 * i, v + 9 * i) for u, v in _P3_COPY_EDGES)
        for i in range(copies):
            edges.append((9 * i + b, 9 * ((i + 1) % copies) + a))
        paired = set()
        for i in range(copies):
            j = (i + half + shift) % copies
            if i in paired or j in paired or i == j:
                continue
            edges.append((9 * i + c, 9 * j + c))
            paired.update((i, j))
        if len(paired) != copies:
            continue
        g = CubicGraph(edges)
        if not bridges(g) and not small_cuts(g, 2):
            return g
    return None


def test_p3_ring_is_the_first_retried_wiring():
    # The unrotated antipodal wiring is 2-cut-free for every even size
    # measured, so the retry loop it replaced never rotated.
    for copies in range(2, 41, 2):
        reference = retrying_p3_ring(copies)
        assert reference is not None
        assert dict(gen_p3_ring(copies).edge_items()) == dict(reference.edge_items())


def test_p3_ring_parity_rejected():
    with pytest.raises(ValueError):
        gen_p3_ring(3)


def test_p3_ring_census_on_reduced():
    from pentafactor.reductions import full_reduce

    g = gen_p3_ring(4)
    trace = full_reduce(g)
    assert trace.steps == ()  # every cut side is uncolorable
    assert len(take_census(trace.reduced, "fivecyc").p3) == 4


@pytest.fixture(scope="module")
def levels10():
    """All cubic multigraphs on n <= 10 vertices: the module's one build."""
    return cubic_multigraph_levels(10)


@pytest.fixture(scope="module")
def fresh_census(levels10):
    """simple_cubic_census(n) for n <= 10."""
    return {n: [g for g in gs if g.is_simple() and is_connected(g)] for n, gs in levels10.items()}


def test_is_petersen_agrees_with_isomorphism(levels10):
    # Disconnected graphs and multigraphs included; exactly one is Petersen.
    pet = gen_petersen()
    graphs = levels10[10]
    assert len(graphs) == 135
    assert sum(map(is_petersen, graphs)) == 1
    for g in graphs:
        assert is_petersen(g) == is_isomorphic(g, pet)


def test_census_counts_small():
    levels = connected_cubic_multigraphs(8)
    assert [len(levels[n]) for n in (2, 4, 6, 8)] == [1, 2, 6, 20]
    for n in (4, 6, 8):
        assert len(simple_cubic_census(n)) == KNOWN_SIMPLE_COUNTS[n]


def test_census_level_10():
    assert len(simple_cubic_census(10)) == KNOWN_SIMPLE_COUNTS[10]


@pytest.mark.slow
def test_census_counts_full():
    for n in (12, 14):
        assert len(simple_cubic_census(n)) == KNOWN_SIMPLE_COUNTS[n]


def _nx_classes(graphs) -> list[list[nx.MultiGraph]]:
    """Isomorphism classes by networkx's VF2 matcher, bucketed by the sorted
    per-vertex distance histograms (an invariant computed with networkx)."""
    buckets: dict[tuple, list[list[nx.MultiGraph]]] = {}
    for g in graphs:
        G = nx.MultiGraph()
        G.add_nodes_from(g.vertices)
        G.add_edges_from(g.endpoints(e) for e in g.edge_ids)
        key = tuple(sorted(
            tuple(sorted(Counter(nx.single_source_shortest_path_length(G, v).values()).items()))
            for v in G
        ))
        classes = buckets.setdefault(key, [])
        for cls in classes:
            if nx.is_isomorphic(G, cls[0]):
                cls.append(G)
                break
        else:
            classes.append([G])
    return [cls for classes in buckets.values() for cls in classes]


def test_census_file_consistent(fresh_census):
    # The committed census file matches a fresh regeneration at small sizes
    # and the classical counts overall.
    from pathlib import Path

    from pentafactor.formats import parse_graph

    path = Path(__file__).parent / "data" / "cubic_simple_connected_14.g6"
    graphs = [parse_graph(line) for line in path.read_text().splitlines() if line]
    by_n: dict[int, list] = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    assert {n: len(gs) for n, gs in by_n.items()} == KNOWN_SIMPLE_COUNTS
    for n in (4, 6, 8, 10):
        # Each class of fresh + stored holds one fresh and one stored graph.
        fresh = fresh_census[n]
        classes = _nx_classes(fresh + by_n[n])
        assert len(classes) == len(fresh) == len(by_n[n])
        assert all(len(cls) == 2 for cls in classes)
    # No isomorphic duplicates at any size.
    for n, gs in by_n.items():
        assert len(_nx_classes(gs)) == len(gs)


def test_petersen_is_unique_snark_up_to_10(fresh_census):
    snarks = [g for g in fresh_census[10]
              if not bridges(g) and three_edge_color(g) is UNCOLORABLE]
    assert len(snarks) == 1
    assert is_petersen(snarks[0])


def test_chain_tightness_oracle():
    # chain(1) has only 96 perfect matchings, so the exhaustive oracle is
    # feasible despite n = 32: every 2-factor has at least 4 pentagons and
    # the solver achieves exactly that.
    g = gen_chain_family(1)
    assert len(enumerate_perfect_matchings(g)) == 96
    assert oracle_exact(g, cap=32) == (4, 4)
    f, cert = solve_5cyc(g)
    assert cert.achieved == 4
    # The family also respects the conjectured n >= 7.5 * omega - 5.
    _, odd_cert = solve_oddness(g)
    assert g.n >= 7.5 * odd_cert.achieved - 5
