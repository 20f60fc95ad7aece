"""3-edge-colorability against a plain backtracking oracle."""

from __future__ import annotations

import pytest

from pentafactor.coloring import UNCOLORABLE, even_two_factor_from_coloring, three_edge_color
from pentafactor.errors import ImproperColoring
from pentafactor.families import cubic_multigraph_levels, gen_chain_family, gen_petersen
from pentafactor.graphs import CubicGraph, is_connected


def oracle_colorable(g) -> bool:
    """Dumb edge-order backtracking, independent of the library's search."""
    ids = list(g.edge_ids)
    used = {v: set() for v in g.vertices}

    def rec(i):
        if i == len(ids):
            return True
        u, v = g.endpoints(ids[i])
        for c in (0, 1, 2):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            if rec(i + 1):
                return True
            used[u].discard(c)
            used[v].discard(c)
        return False

    return rec(0)


def test_k4_colorable(k4):
    col = three_edge_color(k4)
    assert col is not UNCOLORABLE
    assert col.is_proper_on(k4)
    assert all(len(col.color_class(c)) == 2 for c in (0, 1, 2))


def test_color_classes_are_perfect_matchings(cube, k33):
    for g in (cube, k33):
        col = three_edge_color(g)
        assert col is not UNCOLORABLE
        for c in (0, 1, 2):
            covered = [v for e in col.color_class(c) for v in g.endpoints(e)]
            assert sorted(covered) == list(g.vertices)


def test_petersen_uncolorable(petersen):
    assert three_edge_color(petersen) is UNCOLORABLE
    assert not oracle_colorable(petersen)


def test_chain_family_uncolorable():
    assert three_edge_color(gen_chain_family(1)) is UNCOLORABLE


def test_bridged_graph_uncolorable():
    subdiv_k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    g = CubicGraph(subdiv_k4 + [(u + 5, v + 5) for u, v in subdiv_k4] + [(4, 9)])
    assert three_edge_color(g) is UNCOLORABLE


def test_theta_colorable(theta):
    col = three_edge_color(theta)
    assert col is not UNCOLORABLE and col.is_proper_on(theta)


def test_verdicts_match_oracle_on_census():
    # One incremental build gives simple_cubic_census(n) for every n <= 12.
    levels = cubic_multigraph_levels(12)
    for n in (4, 6, 8, 10, 12):
        for g in (g for g in levels[n] if g.is_simple() and is_connected(g)):
            assert (three_edge_color(g) is not UNCOLORABLE) == oracle_colorable(g), n


def test_even_two_factor(k4, k33, cube):
    for g in (k4, k33, cube):
        col = three_edge_color(g)
        factor = even_two_factor_from_coloring(g, col)
        assert factor.odd_count == 0
        assert factor.count5 == 0 and factor.count3 == 0
        assert all(c.length % 2 == 0 for c in factor.circuits)


def test_k4_even_factor_is_four_circuit(k4):
    factor = even_two_factor_from_coloring(k4, three_edge_color(k4))
    assert factor.length_counts() == {4: 1}


def test_improper_coloring_rejected(k4, cube):
    col = three_edge_color(k4)
    with pytest.raises(ImproperColoring):
        even_two_factor_from_coloring(cube, col)
