"""Cuts and cyclic edge connectivity against exhaustive oracles."""

from __future__ import annotations

import itertools
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pentafactor import coloring, connectivity
from pentafactor.coloring import _find_two_cut, three_edge_color
from pentafactor.connectivity import (
    _cut_record,
    bridges,
    bridges_skipping,
    cut_labels,
    cyclic_edge_connectivity,
    edges_in_small_cuts,
    small_cuts,
)
from pentafactor.errors import HasBridge, NotDefined
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import parse_graph
from pentafactor.graphs import CubicGraph, MultiGraph, connected_components, girth
from tests.hosts import exceptional_22_host, p2_ring, relabeled

CENSUS14 = [
    parse_graph(line)
    for line in (Path(__file__).parent / "data" / "cubic_simple_connected_14.g6")
    .read_text().splitlines()
    if line
]


def oracle_small_cuts(g, k):
    """Brute force: all minimal disconnecting edge sets of size <= k."""
    ids = list(g.edge_ids)
    cuts = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(ids, size):
            removed = frozenset(combo)
            if len(connected_components(g, removed)) < 2:
                continue
            if any(frozenset(c) < removed for c in cuts):
                continue
            cuts.append(removed)
    return {c for c in cuts if len(c) >= 2}


def oracle_cyclic_connectivity(g):
    """Exhaustive over vertex subsets: both sides must contain a circuit."""
    def side_has_circuit(vs):
        sub_edges = g.induced_edge_ids(vs)
        sub = MultiGraph({e: g.endpoints(e) for e in sub_edges}, vertices=vs)
        for comp in connected_components(sub):
            if len(sub.induced_edge_ids(comp)) >= len(comp):
                return True
        return False

    verts = list(g.vertices)
    best = None
    for r in range(1, len(verts) // 2 + 1):
        for combo in itertools.combinations(verts, r):
            a = set(combo)
            b = set(verts) - a
            if not (side_has_circuit(a) and side_has_circuit(b)):
                continue
            cut = len(g.boundary_edge_ids(a))
            if best is None or cut < best:
                best = cut
    return best


# K4 with one edge subdivided: a cubic gadget with one degree-2 slot.
_SUBDIV_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]


def bridged_dumbbell() -> CubicGraph:
    return CubicGraph(
        _SUBDIV_K4 + [(u + 5, v + 5) for u, v in _SUBDIV_K4] + [(4, 9)]
    )


def test_bridges(petersen, theta):
    assert bridges(petersen) == []
    assert bridges(theta) == []
    g = bridged_dumbbell()
    assert len(bridges(g)) == 1
    (b,) = bridges(g)
    assert set(g.endpoints(b)) == {4, 9}


def test_petersen_cuts_all_trivial(petersen):
    cuts = small_cuts(petersen, 3)
    assert len(cuts) == 10
    assert all(c.trivial and c.size == 3 for c in cuts)
    assert {frozenset(c.edge_ids) for c in cuts} == oracle_small_cuts(petersen, 3)


def test_small_cuts_require_bridgeless():
    with pytest.raises(HasBridge):
        small_cuts(bridged_dumbbell(), 2)


def test_theta_has_no_two_cuts(theta):
    # Removing any two of the three parallel edges leaves the third, so the
    # theta multigraph is 3-edge-connected; its only 3-cut is the dependent
    # triple, which is excluded from E3 by the independence requirement.
    assert small_cuts(theta, 2) == []
    assert oracle_small_cuts(theta, 2) == set()
    triples = small_cuts(theta, 3)
    assert len(triples) == 1 and not triples[0].independent
    e2, e3 = edges_in_small_cuts(theta)
    assert e2 == frozenset() and e3 == frozenset()


def test_chain_family_cuts():
    g = gen_chain_family(1)
    cuts2 = small_cuts(g, 2)
    # One 2-cut per chain block (its two linking edges), and nothing else.
    assert len(cuts2) == 3
    assert {frozenset(c.edge_ids) for c in cuts2} == oracle_small_cuts(g, 2)
    e2, e3 = edges_in_small_cuts(g)
    assert len(e2) == 6  # the six chain-linking edges
    link_ends = {v for e in e2 for v in g.endpoints(e)}
    assert {0, 1} <= link_ends  # both hubs sit on linking edges
    assert e2 <= e3


def test_e2_subset_e3(petersen, cube, k33):
    for g in (petersen, cube, k33, gen_chain_family(1)):
        e2, e3 = edges_in_small_cuts(g)
        assert e2 <= e3


def test_every_cut_disconnects(cube, k33):
    for g in (cube, k33, gen_chain_family(1)):
        for cut in small_cuts(g, 3):
            comps = [frozenset(c) for c in connected_components(g, frozenset(cut.edge_ids))]
            assert len(comps) == 2
            assert cut.side_small in comps


def test_no_adjacent_two_cut_edges(cube, k33, petersen):
    for g in (petersen, cube, k33, gen_chain_family(1)):
        for cut in small_cuts(g, 2):
            a, b = cut.edge_ids
            assert not set(g.endpoints(a)) & set(g.endpoints(b))


def test_cyclic_connectivity_values(petersen, cube, k33):
    assert cyclic_edge_connectivity(petersen) == 5
    assert oracle_cyclic_connectivity(petersen) == 5
    assert cyclic_edge_connectivity(cube) == oracle_cyclic_connectivity(cube) == 4
    assert cyclic_edge_connectivity(gen_chain_family(1)) == 2
    with pytest.raises(NotDefined):
        cyclic_edge_connectivity(k33)  # n = 6 < 8


def test_cyclic_connectivity_oracle_cross_check(cube):
    # Wagner graph V8 (Moebius ladder): cyclically 4-edge-connected.
    v8 = CubicGraph([(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    assert cyclic_edge_connectivity(v8) == oracle_cyclic_connectivity(v8)


# -- the bridge-pass references ----------------------------------------------------


def bridge_pass_small_cuts(g, k):
    """Reference: one bridge pass per edge and one per edge pair.  A pair
    {e, f} is a 2-cut iff f is a bridge of g - e; a triple is a 3-cut iff h
    is a bridge of g - {e, f} and no pair inside it is a 2-cut."""
    ids = list(g.edge_ids)
    pair_cuts: set[frozenset[int]] = set()
    for e in ids:
        for f in bridges_skipping(g, frozenset((e,))) or ():
            pair_cuts.add(frozenset((e, f)))
    cuts = set(pair_cuts)
    if k == 3:
        for e, f in itertools.combinations(ids, 2):
            if frozenset((e, f)) in pair_cuts:
                continue
            for h in bridges_skipping(g, frozenset((e, f))) or ():
                triple = frozenset((e, f, h))
                if any(frozenset(p) in pair_cuts for p in itertools.combinations(triple, 2)):
                    continue
                cuts.add(triple)
    records = [_cut_record(g, c) for c in cuts]
    records.sort(key=lambda c: (c.size, tuple(sorted(c.edge_ids))))
    return records


def bridge_pass_two_cut(g):
    """Reference: the first edge in id order that lies in a 2-cut, with the
    smallest bridge of g minus that edge."""
    for e in g.edge_ids:
        br = bridges_skipping(g, frozenset((e,)))
        if br:
            return e, br[0]
    return None


def assert_cuts_match_bridge_pass(g):
    assert small_cuts(g, 2) == bridge_pass_small_cuts(g, 2)
    assert small_cuts(g, 3) == bridge_pass_small_cuts(g, 3)
    assert _find_two_cut(g) == bridge_pass_two_cut(g)


BRIDGELESS_CENSUS14 = [g for g in CENSUS14 if not bridges(g)]

CUT_HOSTS = {
    "chain:1": lambda: gen_chain_family(1),
    "chain:2": lambda: gen_chain_family(2),
    "p3ring:4": lambda: gen_p3_ring(4),
    "p2ring:3": lambda: p2_ring(3),
    "exception-22": exceptional_22_host,
}


def test_small_cuts_match_bridge_pass_on_census():
    assert len(BRIDGELESS_CENSUS14) == 587
    for g in BRIDGELESS_CENSUS14:
        assert_cuts_match_bridge_pass(g)


@pytest.mark.parametrize("name", sorted(CUT_HOSTS))
def test_small_cuts_match_bridge_pass(name):
    assert_cuts_match_bridge_pass(CUT_HOSTS[name]())


@pytest.mark.parametrize("name", ["chain:1", "p3ring:4"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_small_cuts_match_bridge_pass_relabelled(name, seed):
    assert_cuts_match_bridge_pass(relabeled(CUT_HOSTS[name](), seed))


def test_label_collisions_are_rejected(monkeypatch):
    # Masking every label to its low 2 bits is linear, so each cut still XORs
    # to 0, but most pairs and triples now collide: the bridge pass that
    # confirms a candidate must reject every false one.
    graphs = [gen_chain_family(1), gen_p3_ring(4), *BRIDGELESS_CENSUS14[::11][:50]]
    expected = [(small_cuts(g, 2), small_cuts(g, 3), three_edge_color(g)) for g in graphs]

    def low_bits(g):
        return {e: label & 3 for e, label in cut_labels(g).items()}

    monkeypatch.setattr(connectivity, "cut_labels", low_bits)
    monkeypatch.setattr(coloring, "cut_labels", low_bits)
    assert [(small_cuts(g, 2), small_cuts(g, 3), three_edge_color(g)) for g in graphs] == expected


def test_cut_labels_cancel_on_every_cut():
    for g in (gen_chain_family(1), gen_p3_ring(4), exceptional_22_host()):
        label = cut_labels(g)
        assert set(label) == set(g.edge_ids)
        assert all(label[e] for e in g.edge_ids)  # bridgeless: no zero label
        for cut in small_cuts(g, 3):
            x = 0
            for e in cut.edge_ids:
                x ^= label[e]
            assert x == 0


def test_cyclic_connectivity_below_four_iff_small_cut():
    # In a bridgeless cubic graph a cyclic edge-cut of size < 4 is a 2-cut or
    # a 3-cut whose small side is more than one vertex.
    graphs = [g for g in CENSUS14 if g.n >= 12 and girth(g) == 5]
    assert graphs
    graphs += [gen_chain_family(1), gen_p3_ring(4),
               CubicGraph(sorted(nx.dodecahedral_graph().edges()))]
    for g in graphs:
        below_four = any(c.size == 2 or not c.trivial for c in small_cuts(g, 3))
        assert below_four == (cyclic_edge_connectivity(g) < 4)
