"""Constructed host graphs shared across test modules."""

from __future__ import annotations

import random

from pentafactor.graphs import CubicGraph, PETERSEN_EDGES

MK16 = [(i, (i + 1) % 8) for i in range(8)] + [(i, 8 + i) for i in range(8)] + \
       [(8 + i, 8 + ((i + 3) % 8)) for i in range(8)]

# K4 with one edge subdivided: a cubic gadget with one degree-2 slot.
SUBDIV_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]


def bridged_dumbbell() -> CubicGraph:
    return CubicGraph(
        SUBDIV_K4 + [(u + 5, v + 5) for u, v in SUBDIV_K4] + [(4, 9)]
    )


def two_cycle_fixture() -> CubicGraph:
    """Petersen with edge (0,1) subdivided twice and the middle edge doubled."""
    edges = dict(enumerate(PETERSEN_EDGES))
    del edges[0]
    edges.update({100: (0, 10), 101: (10, 11), 102: (11, 1), 103: (10, 11)})
    return CubicGraph(edges)


def triangle_fixture() -> CubicGraph:
    """Petersen with vertex 0 expanded into a triangle."""
    edges = {i: e for i, e in enumerate(PETERSEN_EDGES) if 0 not in e}
    edges.update({100: (20, 21), 101: (21, 22), 102: (22, 20),
                  103: (20, 1), 104: (21, 4), 105: (22, 5)})
    return CubicGraph(edges)


def four_cycle_both_fixture() -> CubicGraph:
    """Inverse of the both-pairs-identical case, labeled so the intended
    4-circuit is enumerated first."""
    pet = [(u + 6, v + 6) for u, v in PETERSEN_EDGES if (u, v) != (0, 1)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 2), (5, 1), (5, 3),
             (4, 6), (5, 7)] + pet
    return CubicGraph(edges)


def four_cycle_w1w3_fixture() -> CubicGraph:
    """Petersen vertex 0 expanded into a 4-circuit plus its shared neighbour."""
    edges = {i: e for i, e in enumerate(PETERSEN_EDGES) if 0 not in e}
    edges.update({100: (20, 21), 101: (21, 22), 102: (22, 23), 103: (23, 20),
                  104: (24, 20), 105: (24, 22), 106: (24, 1),
                  107: (21, 4), 108: (23, 5)})
    return CubicGraph(edges)


def four_cycle_disjoint_fixture() -> CubicGraph:
    """Two Petersen edges at distance >= 2 replaced by a 4-circuit, so the
    inserted circuit is the only one of length 4."""
    edges = {i: e for i, e in enumerate(PETERSEN_EDGES) if e not in ((0, 1), (7, 9))}
    edges.update({100: (20, 21), 101: (21, 22), 102: (22, 23), 103: (23, 20),
                  104: (20, 0), 105: (21, 1), 106: (22, 7), 107: (23, 9)})
    return CubicGraph(edges)


def two_cut_fixture() -> CubicGraph:
    """Petersen spliced with a Moebius-Kantor-minus-edge gadget (girth >= 5)."""
    edges = dict(enumerate(PETERSEN_EDGES))
    del edges[0]
    gad = {100 + i: (20 + u, 20 + v) for i, (u, v) in enumerate(MK16) if (u, v) != (0, 1)}
    edges.update(gad)
    edges.update({200: (0, 20), 201: (1, 21)})
    return CubicGraph(edges)


def three_cut_fixture() -> CubicGraph:
    """Moebius-Kantor minus a vertex glued to Petersen minus a vertex."""
    mkm = {i: (u + 100, v + 100) for i, (u, v) in enumerate(MK16) if 0 not in (u, v)}
    p3e = {1000 + i: e for i, e in enumerate(PETERSEN_EDGES) if 0 not in e}
    edges = {**mkm, **p3e, 2000: (101, 1), 2001: (107, 4), 2002: (108, 5)}
    return CubicGraph(edges)


def exceptional_22_host() -> CubicGraph:
    """Two Petersens with an edge subdivided twice, glued on the subdivision
    path: the unique shape where two classified P2 occurrences intersect."""
    edges: dict[int, tuple[int, int]] = {}
    for off in (0, 100):
        for i, (u, v) in enumerate(PETERSEN_EDGES):
            if (u, v) == (0, 1):
                continue
            edges[off + i] = (off + u, off + v)
    s1, s2 = 50, 51
    edges.update({200: (0, s1), 201: (1, s2), 202: (100, s1),
                  203: (101, s2), 204: (s1, s2)})
    return CubicGraph(edges)


REDUCTION_FIXTURES = [
    ("TwoCycle", two_cycle_fixture),
    ("Triangle", triangle_fixture),
    ("FourCycle-both", four_cycle_both_fixture),
    ("FourCycle-w1w3", four_cycle_w1w3_fixture),
    ("FourCycle-disjoint", four_cycle_disjoint_fixture),
    ("TwoCut", two_cut_fixture),
    ("ThreeCut", three_cut_fixture),
]


def relabeled(g: CubicGraph, seed: int) -> CubicGraph:
    """``g`` under a random vertex permutation (onto sparse labels) and a
    random edge order."""
    rng = random.Random(seed)
    image = rng.sample(range(3 * g.n), g.n)
    perm = dict(zip(g.vertices, image))
    edges = [(perm[u], perm[v]) for _, (u, v) in g.edge_items()]
    rng.shuffle(edges)
    return CubicGraph(edges)


def p2_ring(k: int) -> CubicGraph:
    """A ring of k P2 blocks.  Block i is Petersen minus the edge (0, 1) with
    0 and 1 joined by a 2-path x-y; y is linked to the next block's x."""
    edges = []
    for i in range(k):
        off = 12 * i
        x, y = off + 10, off + 11
        edges += [(u + off, v + off) for u, v in PETERSEN_EDGES if (u, v) != (0, 1)]
        edges += [(off, x), (x, y), (y, off + 1), (y, 12 * ((i + 1) % k) + 10)]
    return CubicGraph(edges)
