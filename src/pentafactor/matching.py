"""Exact minimum-weight perfect matching and an exhaustive enumerator.

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

    Classical degree-factor reduction: each remaining vertex of degree d
    becomes d edge-end nodes plus d-2 core nodes joined completely; original
    edges join their two end nodes.  A perfect matching of the gadget selects
    exactly two edges per vertex.
    """
    keep = [v for v in g.vertices if v not in removed_vertices]
    if not keep:
        return True
    keep_set = set(keep)
    inc: dict[int, list[int]] = {v: [] for v in keep}
    kept_edges = []
    for eid, (u, v) in g.edge_items():
        if u in keep_set and v in keep_set:
            inc[u].append(eid)
            inc[v].append(eid)
            kept_edges.append(eid)
    if any(len(inc[v]) < 2 for v in keep):
        return False
    import networkx as nx  # deferred, as in min_weight_perfect_matching

    gx = nx.Graph()
    for v in keep:
        d = len(inc[v])
        for e in inc[v]:
            gx.add_node(("h", v, e))
        for j in range(d - 2):
            core = ("c", v, j)
            gx.add_node(core)
            for e in inc[v]:
                gx.add_edge(core, ("h", v, e))
    for eid in kept_edges:
        u, v = g.endpoints(eid)
        gx.add_edge(("h", u, eid), ("h", v, eid))
    mate = nx.max_weight_matching(gx, maxcardinality=True)
    return 2 * len(mate) == gx.number_of_nodes()
