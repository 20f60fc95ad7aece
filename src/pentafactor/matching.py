"""Exact minimum-weight perfect matching, an exhaustive enumerator, and
2-factor existence as a perfect matching of the degree-3 vertices.

Weights are nonnegative integers in quarter-units (the objective coefficients
1/4, 1, 2 become 1, 4, 8) so the optimization stays integral and comparisons
exact.  The weighted solve runs on networkx's blossom implementation, which
is exact over Python integers; the enumerator is independent of it and serves
as the correctness oracle.

Ties between optimal matchings are broken deterministically (lexicographically
smallest sorted edge-id tuple) by folding a positional bonus into the weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .errors import CapExceeded, NoPerfectMatching
from .graphs import MultiGraph

WeightVector = Mapping[int, int]


def _collapsed_candidates(g: MultiGraph, weights: WeightVector) -> dict[tuple[int, int], int]:
    """Cheapest edge id per vertex pair; parallels never beat it in a matching."""
    best: dict[tuple[int, int], int] = {}
    for eid, pair in g.edge_items():
        w = weights.get(eid, 0)
        cur = best.get(pair)
        if cur is None or (w, eid) < (weights.get(cur, 0), cur):
            best[pair] = eid
    return best


def min_weight_perfect_matching(
    g: MultiGraph, weights: WeightVector
) -> tuple[frozenset[int], int]:
    """(matching edge-ids, total weight), exact, deterministic.

    Accepts any graph admitting a perfect matching; bridgeless cubic inputs
    always do (Petersen's theorem).  Raises NoPerfectMatching otherwise.
    """
    for eid in g.edge_ids:
        if weights.get(eid, 0) < 0:
            raise ValueError("weights must be nonnegative")
    if g.n == 0:
        return frozenset(), 0
    if g.n % 2:
        raise NoPerfectMatching("odd vertex count")
    candidates = _collapsed_candidates(g, weights)
    rank = {eid: i for i, eid in enumerate(sorted(g.edge_ids))}
    mr = len(rank)
    wmax = max((weights.get(e, 0) for e in candidates.values()), default=0)
    scale = 1 << mr
    import networkx as nx  # deferred: most of `import pentafactor` otherwise

    gx = nx.Graph()
    gx.add_nodes_from(g.vertices)
    for pair, eid in sorted(candidates.items()):
        # Primary term: minimize true weight.  Secondary: prefer small ids.
        w = (wmax - weights.get(eid, 0)) * scale + (1 << (mr - 1 - rank[eid]))
        gx.add_edge(*pair, eid=eid, weight=w)
    mate = nx.max_weight_matching(gx, maxcardinality=True, weight="weight")
    if 2 * len(mate) != g.n:
        raise NoPerfectMatching("graph has no perfect matching")
    ids = frozenset(gx.edges[u, v]["eid"] for u, v in mate)
    total = sum(weights.get(e, 0) for e in ids)
    return ids, total


def enumerate_perfect_matchings(
    g: MultiGraph, cap: int | None = None
) -> list[frozenset[int]]:
    """All perfect matchings by exhaustive backtracking, deterministic order.

    Independent of the weighted solver; doubles as its oracle in tests.
    """
    out: list[frozenset[int]] = []
    for m in _matchings_iter(g):
        out.append(m)
        if cap is not None and len(out) > cap:
            raise CapExceeded(f"more than {cap} perfect matchings")
    out.sort(key=lambda m: tuple(sorted(m)))
    return out


def _matchings_iter(g: MultiGraph) -> Iterator[frozenset[int]]:
    verts = list(g.vertices)
    if len(verts) % 2:
        return
    covered: set[int] = set()
    chosen: list[int] = []

    def rec() -> Iterator[frozenset[int]]:
        v = next((u for u in verts if u not in covered), None)
        if v is None:
            yield frozenset(chosen)
            return
        for eid in g.incident(v):
            w = g.other_end(eid, v)
            if w in covered:
                continue
            covered.add(v)
            covered.add(w)
            chosen.append(eid)
            yield from rec()
            chosen.pop()
            covered.discard(v)
            covered.discard(w)

    yield from rec()


def fractional_objective_value(g: MultiGraph, weights: WeightVector) -> Fraction:
    """Objective at the uniform point (1/3, ..., 1/3) of the matching polytope."""
    return Fraction(sum(weights.get(e, 0) for e in g.edge_ids), 3)


def has_two_factor(g: MultiGraph, removed_vertices: frozenset[int] = frozenset()) -> bool:
    """Does g minus the removed vertices have a spanning 2-regular subgraph?

    That graph must have maximum degree 3 (ValueError otherwise).  A 2-factor
    then leaves out one edge at each degree-3 vertex and none at a degree-2
    vertex, so one exists iff every vertex has degree >= 2 and the degree-3
    vertices have a perfect matching among themselves.
    """
    keep = frozenset(g.vertices) - removed_vertices
    degree = dict.fromkeys(keep, 0)
    for e in g.induced_edge_ids(keep):
        for v in g.endpoints(e):
            degree[v] += 1
    if any(d > 3 for d in degree.values()):
        raise ValueError("has_two_factor needs maximum degree 3")
    if any(d < 2 for d in degree.values()):
        return False
    cubic = [v for v, d in degree.items() if d == 3]
    sub = MultiGraph({e: g.endpoints(e) for e in g.induced_edge_ids(cubic)}, vertices=cubic)
    try:
        min_weight_perfect_matching(sub, {})
    except NoPerfectMatching:
        return False
    return True
