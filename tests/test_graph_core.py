"""Graph core: structure invariants, girth, circuit enumeration, isomorphism."""

from __future__ import annotations

import itertools
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pentafactor.errors import LoopEdge, NotCubic
from pentafactor.formats import parse_graph
from pentafactor.graphs import (
    Circuit,
    CubicGraph,
    MultiGraph,
    PETERSEN_EDGES,
    enumerate_circuits_up_to,
    girth,
    is_isomorphic,
    is_petersen,
    match_isomorphic,
    vertex_profiles,
)

from tests.hosts import relabeled


def nx_simple_cycles(g: CubicGraph, cap: int) -> set[frozenset[int]]:
    """Independent enumeration oracle for simple graphs via networkx."""
    G = nx.Graph(g.endpoints(e) for e in g.edge_ids)
    return {
        frozenset(c) for c in nx.simple_cycles(G, length_bound=cap)
    }


def test_degree_validation():
    with pytest.raises(NotCubic):
        CubicGraph([(0, 1), (1, 2)])
    with pytest.raises(LoopEdge):
        MultiGraph([(0, 0)])


def test_edge_identity_and_adjacency(petersen):
    assert petersen.n == 10 and petersen.m == 15
    assert sum(petersen.degree(v) for v in petersen.vertices) == 2 * petersen.m
    for eid in petersen.edge_ids:
        u, v = petersen.endpoints(eid)
        assert eid in petersen.incident(u) and eid in petersen.incident(v)


def test_girth_values(petersen, k4, k33, theta, cube):
    assert girth(petersen) == 5
    assert girth(k4) == 3
    assert girth(k33) == 4
    assert girth(theta) == 2
    assert girth(cube) == 4


def test_circuit_canonical_form():
    c1 = Circuit.from_walk((0, 1, 2), (10, 11, 12))
    c2 = Circuit.from_walk((1, 2, 0), (11, 12, 10))
    c3 = Circuit.from_walk((2, 1, 0), (11, 10, 12))
    assert c1 == c2 == c3
    assert c1.length == 3 and c1.is_odd


def _least_rotation_or_reflection(vs, es):
    """Reference: the minimum over all 2k rotations and reflections."""
    k = len(vs)
    # The reversed walk v_{k-1} ... v_0 uses edge e_{k-2-i} as its edge i.
    reverse = (vs[::-1], tuple(es[(k - 2 - i) % k] for i in range(k)))
    best = (vs, es)
    for seq_v, seq_e in ((vs, es), reverse):
        for r in range(k):
            cand = (seq_v[r:] + seq_v[:r], seq_e[r:] + seq_e[:r])
            if cand < best:
                best = cand
    return best


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_walk_is_least_rotation_or_reflection(data):
    # k = 2 is a 2-circuit on parallel edges.
    k = data.draw(st.integers(2, 40), label="k")
    distinct = st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True)
    vs = tuple(data.draw(distinct, label="vertices"))
    es = tuple(data.draw(distinct, label="edge_ids"))
    c = Circuit.from_walk(vs, es)
    assert (c.vertices, c.edge_ids) == _least_rotation_or_reflection(vs, es)


def test_petersen_five_circuits(petersen):
    circuits = enumerate_circuits_up_to(petersen, 5)
    assert len(circuits) == 12
    assert all(c.length == 5 for c in circuits)
    assert nx_simple_cycles(petersen, 5) == {c.vertex_set for c in circuits}
    # Every vertex lies on exactly 6 of the 12 five-circuits.
    for v in petersen.vertices:
        assert sum(1 for c in circuits if v in c.vertex_set) == 6


def test_k33_short_circuits(k33):
    circuits = enumerate_circuits_up_to(k33, 5)
    assert sorted(c.length for c in circuits) == [4] * 9
    assert nx_simple_cycles(k33, 5) == {c.vertex_set for c in circuits}


def test_multigraph_circuits(theta):
    twos = enumerate_circuits_up_to(theta, 2)
    assert len(twos) == 3
    assert all(c.length == 2 for c in twos)


def test_k4_has_no_two_circuits(k4):
    assert enumerate_circuits_up_to(k4, 2) == []


def test_circuit_cap_enforced(petersen):
    with pytest.raises(ValueError):
        enumerate_circuits_up_to(petersen, 10)


def test_circuit_enumeration_against_networkx(petersen, k4, cube):
    for g in (petersen, k4, cube):
        mine = {c.vertex_set for c in enumerate_circuits_up_to(g, 9)}
        assert mine == nx_simple_cycles(g, 9)


def test_isomorphism_detects_relabeling(petersen):
    # Relabel Petersen with a random-looking permutation.
    perm = {v: (7 * v + 3) % 10 for v in range(10)}
    relabeled = CubicGraph([(perm[u], perm[v]) for u, v in PETERSEN_EDGES])
    assert is_isomorphic(petersen, relabeled)
    assert is_petersen(relabeled)
    assert not is_petersen(CubicGraph([(a, b) for a in range(3) for b in range(3, 6)]))


def test_isomorphism_separates_nonisomorphic():
    prism = CubicGraph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                        (0, 3), (1, 4), (2, 5)])
    k33 = CubicGraph([(a, b) for a in range(3) for b in range(3, 6)])
    assert not is_isomorphic(prism, k33)


CENSUS14 = [
    parse_graph(line)
    for line in (Path(__file__).parent / "data" / "cubic_simple_connected_14.g6")
    .read_text().splitlines()
    if line
]
PROFILE_SETS = [sorted(vertex_profiles(g).values()) for g in CENSUS14]


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(CENSUS14) - 1), seed=st.integers(0, 2**32 - 1))
def test_relabeled_census_graph_is_isomorphic(index, seed):
    g = CENSUS14[index]
    h = relabeled(g, seed)
    assert is_isomorphic(g, h) and is_isomorphic(h, g)
    assert is_petersen(h) == is_petersen(g)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabeled_petersen_is_petersen(seed):
    pet = CubicGraph(PETERSEN_EDGES)
    h = relabeled(pet, seed)
    assert is_petersen(h)
    assert is_isomorphic(pet, h)


def _nx_graph(g: CubicGraph) -> nx.MultiGraph:
    G = nx.MultiGraph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.endpoints(e) for e in g.edge_ids)
    return G


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_isomorphism_agrees_with_vf2(data):
    # Pairs of the same order, so neither n nor m decides, half of them with
    # equal profile multisets, so the profiles do not decide either; drawing
    # the same graph twice, relabelled, gives the positives.
    i = data.draw(st.integers(0, len(CENSUS14) - 1), label="i")
    g = CENSUS14[i]
    same_n = [j for j, h in enumerate(CENSUS14) if h.n == g.n]
    same_profiles = [j for j in same_n if PROFILE_SETS[j] == PROFILE_SETS[i]]
    j = data.draw(st.one_of(st.sampled_from(same_n), st.sampled_from(same_profiles)),
                  label="j")
    h = relabeled(CENSUS14[j], data.draw(st.integers(0, 2**32 - 1), label="seed"))
    expected = nx.is_isomorphic(_nx_graph(g), _nx_graph(h))
    assert expected == (i == j)
    assert is_isomorphic(g, h) == expected
    # The matcher alone, without the hash in front of it.
    assert match_isomorphic(g, vertex_profiles(g), h, vertex_profiles(h)) == expected
