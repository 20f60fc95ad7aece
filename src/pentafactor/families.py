"""Extremal family generators and a small-census generator.

The chain family on 30k+2 vertices pins the 2(n-2)/15 bound; the P3 ring
probes the conjectured n/9 bound for 3-edge-connected graphs.
"""

from __future__ import annotations

from typing import Iterator

from .connectivity import bridges, small_cuts
from .errors import ConstructionFailed
from .graphs import (
    CubicGraph,
    PETERSEN_EDGES,
    is_connected,
    match_isomorphic,
    refinement_hash,
    vertex_profiles,
)


def gen_petersen() -> CubicGraph:
    """The Petersen graph with the package's fixed labeling."""
    return CubicGraph(PETERSEN_EDGES)


# P1 block: Petersen minus the edge (0, 1); vertices 0 and 1 have degree 2.
_P1_BLOCK_EDGES = tuple(e for e in PETERSEN_EDGES if e != (0, 1))

# P3 copy: Petersen minus vertex 0, relabeled to 0..8 (old label - 1).
# Degree-2 vertices land on 0, 3, 4 (old 1, 4, 5).
_P3_COPY_EDGES = tuple(
    (u - 1, v - 1) for u, v in PETERSEN_EDGES if 0 not in (u, v)
)
_P3_COPY_STUBS = (0, 3, 4)
# Rotations of the antipodal matching that gen_p3_ring tries.
_P3_RING_RETRIES = 8


def gen_chain_family(k: int) -> CubicGraph:
    """Two hub vertices joined by three chains of k P1 blocks each (n = 30k+2).

    Consecutive blocks are linked degree-2-vertex to degree-2-vertex; chain
    ends attach to the hubs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    hub_u, hub_v = 0, 1
    edges: list[tuple[int, int]] = []
    for chain in range(3):
        prev_out = hub_u
        for b in range(k):
            off = 2 + (chain * k + b) * 10
            edges.extend((u + off, v + off) for u, v in _P1_BLOCK_EDGES)
            edges.append((prev_out, off + 0))
            prev_out = off + 1
        edges.append((prev_out, hub_v))
    g = CubicGraph(edges)
    if g.n != 30 * k + 2 or bridges(g):
        raise ConstructionFailed(f"chain family k={k}: not bridgeless on 30k+2 vertices")
    return g


def gen_p3_ring(copies: int) -> CubicGraph:
    """An even number of P3 copies wired into a ring without 2-edge-cuts.

    One stub to each ring neighbor; third stubs matched antipodally.  If a
    wiring leaves a 2-edge-cut the antipodal matching is rotated and the
    construction retried.
    """
    if copies < 2 or copies % 2:
        raise ValueError("copies must be even and >= 2")

    def build(shift: int) -> CubicGraph:
        edges: list[tuple[int, int]] = []
        for i in range(copies):
            off = 9 * i
            edges.extend((u + off, v + off) for u, v in _P3_COPY_EDGES)
        a, b, c = _P3_COPY_STUBS
        for i in range(copies):
            edges.append((9 * i + b, 9 * ((i + 1) % copies) + a))
        half = copies // 2
        paired: set[int] = set()
        for i in range(copies):
            j = (i + half + shift) % copies
            if i in paired or j in paired or i == j:
                continue
            edges.append((9 * i + c, 9 * j + c))
            paired.add(i)
            paired.add(j)
        if len(paired) != copies:
            raise ConstructionFailed("antipodal matching incomplete")
        return CubicGraph(edges)

    for shift in range(_P3_RING_RETRIES):
        try:
            g = build(shift)
        except (ConstructionFailed, ValueError):
            continue
        if bridges(g):
            continue
        if not small_cuts(g, 2):
            if g.n != 9 * copies:
                raise ConstructionFailed(f"P3 ring has {g.n} vertices, not {9 * copies}")
            return g
    raise ConstructionFailed(f"no 2-cut-free wiring found for {copies} copies")


# -- census generation ---------------------------------------------------------


def theta_graph() -> CubicGraph:
    return CubicGraph([(0, 1), (0, 1), (0, 1)])


def _theta_union(parts: int) -> CubicGraph:
    edges = []
    for j in range(parts):
        edges.extend([(2 * j, 2 * j + 1)] * 3)
    return CubicGraph(edges)


def _extensions(g: CubicGraph) -> Iterator[CubicGraph]:
    """All graphs obtained by subdividing two edge slots and joining them.

    The inverse move (delete an edge, suppress the two divalent ends) applies
    to some edge of every loopless cubic multigraph that is not a disjoint
    union of thetas: a vertex can block only its third edge, and only when it
    carries a parallel pair, so at most n of the 3n/2 edges are blocked.
    Reductions may disconnect the graph, hence generation works over the full
    multigraph universe and connectivity is filtered afterwards.
    """
    ids = list(g.edge_ids)
    base = {e: g.endpoints(e) for e in ids}
    x = max(g.vertices) + 1
    y = x + 1
    nid = g.max_edge_id() + 1
    for i, e1 in enumerate(ids):
        u1, v1 = base[e1]
        # Same edge twice: path u1 - x - y - v1 plus the joining edge x - y.
        edges = {k: p for k, p in base.items() if k != e1}
        edges[nid] = (u1, x)
        edges[nid + 1] = (x, y)
        edges[nid + 2] = (y, v1)
        edges[nid + 3] = (x, y)
        yield CubicGraph(edges)
        for e2 in ids[i + 1:]:
            u2, v2 = base[e2]
            edges = {k: p for k, p in base.items() if k not in (e1, e2)}
            edges[nid] = (u1, x)
            edges[nid + 1] = (x, v1)
            edges[nid + 2] = (u2, y)
            edges[nid + 3] = (y, v2)
            edges[nid + 4] = (x, y)
            yield CubicGraph(edges)


def cubic_multigraph_levels(max_n: int) -> dict[int, list[CubicGraph]]:
    """All loopless cubic multigraphs (connected or not) up to max_n vertices,
    one representative per isomorphism class."""
    if max_n < 2:
        return {}
    levels: dict[int, list[CubicGraph]] = {2: [theta_graph()]}
    n = 2
    while n + 2 <= max_n:
        seen: dict[tuple, list[tuple[CubicGraph, dict]]] = {}

        def admit(h: CubicGraph) -> None:
            prof = vertex_profiles(h)
            bucket = seen.setdefault(refinement_hash(h, prof), [])
            if not any(match_isomorphic(h, prof, rep, rep_prof) for rep, rep_prof in bucket):
                bucket.append((h, prof))

        admit(_theta_union((n + 2) // 2))
        for g in levels[n]:
            for h in _extensions(g):
                admit(h)
        levels[n + 2] = sorted(
            (g for bucket in seen.values() for g, _ in bucket),
            key=lambda g: tuple(sorted(tuple(sorted(p)) for _, p in g.edge_items())),
        )
        n += 2
    return levels


def connected_cubic_multigraphs(max_n: int) -> dict[int, list[CubicGraph]]:
    """Connected loopless cubic multigraphs up to max_n, one per iso class."""
    return {
        n: [g for g in gs if is_connected(g)]
        for n, gs in cubic_multigraph_levels(max_n).items()
    }


def simple_cubic_census(n: int) -> list[CubicGraph]:
    """All connected simple cubic graphs on n vertices, one per iso class."""
    levels = cubic_multigraph_levels(n)
    return [g for g in levels.get(n, []) if g.is_simple() and is_connected(g)]
