"""Bridges, small edge-cuts and their side completions, the edge sets E2/E3,
and cyclic edge connectivity."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import CertificationError, HasBridge, NotDefined
from .graphs import (
    CubicGraph,
    MultiGraph,
    connected_components,
    enumerate_circuits_up_to,
    is_connected,
)


def _bridges_core(
    g: MultiGraph, skip: frozenset[int], root: int, disc: dict[int, int]
) -> list[int]:
    """Bridges of the component of ``root`` in g minus the skipped edges.

    Iterative Tarjan low-link pass; entry edges are tracked by id so parallel
    edges never count as bridges.  ``disc`` accumulates visited vertices
    across calls.
    """
    low: dict[int, int] = {}
    out: list[int] = []
    disc[root] = low[root] = len(disc)
    stack = [(root, -1, iter(g.incident(root)))]
    while stack:
        v, via, it = stack[-1]
        lv = low[v]
        dived = False
        for e in it:
            if e == via or e in skip:
                continue
            w = g.other_end(e, v)
            dw = disc.get(w)
            if dw is None:
                disc[w] = low[w] = len(disc)
                stack.append((w, e, iter(g.incident(w))))
                dived = True
                break
            if dw < lv:
                lv = low[v] = dw
        if dived:
            continue
        low[v] = lv
        stack.pop()
        if stack:
            pv = stack[-1][0]
            if lv < low[pv]:
                low[pv] = lv
            if lv > disc[pv]:
                out.append(via)
    return out


def bridges(g: MultiGraph) -> list[int]:
    """All bridge edge-ids (empty iff g is 2-edge-connected)."""
    disc: dict[int, int] = {}
    out: list[int] = []
    for root in g.vertices:
        if root not in disc:
            out.extend(_bridges_core(g, frozenset(), root, disc))
    return sorted(out)


def bridges_skipping(g: MultiGraph, skip: frozenset[int]) -> list[int] | None:
    """Bridges of g minus the skipped edges; None when that graph is
    disconnected (assuming g itself is connected)."""
    disc: dict[int, int] = {}
    out = _bridges_core(g, skip, g.vertices[0], disc)
    if len(disc) != g.n:
        return None
    return sorted(out)


@dataclass(frozen=True)
class EdgeCut:
    """A minimal edge-cut of size <= 3 with its smaller side."""

    edge_ids: frozenset[int]
    side_small: frozenset[int]
    independent: bool

    @property
    def size(self) -> int:
        return len(self.edge_ids)


def _cut_record(g: MultiGraph, ids: frozenset[int]) -> EdgeCut:
    comps = connected_components(g, removed_edges=ids)
    if len(comps) != 2:
        raise CertificationError("minimal cut must leave exactly two components")
    # connected_components lists the least vertex's side first; min keeps it on a tie.
    small = min(comps, key=len)
    endpoints = {v for e in ids for v in g.endpoints(e)}
    return EdgeCut(ids, frozenset(small), len(endpoints) == 2 * len(ids))


# Fixed, so the labels, and with them the candidate order, repeat run to run.
_LABEL_SEED = 0x5C0FFEE


def cut_labels(g: MultiGraph) -> dict[int, int]:
    """A 64-bit cycle-space label per edge id: the labels of every edge-cut
    of g XOR to 0.

    Each non-tree edge of a spanning forest, grown depth-first from
    ``g.vertices[0]``, draws a random label, and each tree edge gets the XOR
    of the labels of the non-tree edges whose fundamental cycles cross it.
    A cut meets every circuit in an even number of edges, so its labels
    cancel; a set of edges that is no cut XORs to 0 only by a random
    collision.  The generator is seeded per call, so the labels of one graph
    never change.
    """
    rng = random.Random(_LABEL_SEED)
    label: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    acc: dict[int, int] = {}  # per vertex: XOR of its non-tree edge labels
    order: list[int] = []
    for root in g.vertices:
        if root in acc:
            continue
        acc[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for e in g.incident(v):
                if e in label or e == parent_edge.get(v):
                    continue
                w = g.other_end(e, v)
                if w in acc:
                    r = label[e] = rng.getrandbits(64)
                    acc[v] ^= r
                    acc[w] ^= r
                else:
                    acc[w] = 0
                    parent_edge[w] = e
                    stack.append(w)
    # Children come after their parent in ``order``: fold subtrees upwards.
    for v in reversed(order):
        e = parent_edge.get(v)
        if e is not None:
            label[e] = acc[v]
            acc[g.other_end(e, v)] ^= acc[v]
    return label


def two_cuts(g: MultiGraph, label: Mapping[int, int]) -> Iterator[tuple[int, int]]:
    """Every 2-cut (e, f), e < f, of the connected bridgeless g, in id order.

    Both edges of a 2-cut carry one ``cut_labels`` label, so only an edge
    whose label a later edge shares is tried: f pairs with e iff f is a
    bridge of g - e.
    """
    last = {label[e]: e for e in g.edge_ids}
    for e in g.edge_ids:
        if last[label[e]] > e:
            for f in bridges_skipping(g, frozenset((e,))) or ():
                if f > e:
                    yield e, f


def small_cuts(g: MultiGraph, k: int) -> list[EdgeCut]:
    """All minimal edge-cuts of size <= k (k in {2, 3}) of a bridgeless
    graph, except the trivial 3-cuts: the three edges at one vertex.

    Candidates come from the cycle-space labels of ``cut_labels``
    (Pritchard & Thurimella, *Fast computation of small cuts via cycle space
    sampling*, ACM TALG 2011): a 2-cut is a pair of equal labels and a 3-cut
    a triple that XORs to 0.  Every cut is a candidate, and one bridge pass
    confirms each: a pair {e, f} is a 2-cut iff f is a bridge of g - e (the
    pairs come from ``two_cuts``), and a triple iff h is a bridge of
    g - {e, f} and no pair inside it is a 2-cut.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if bridges(g):
        raise HasBridge("small_cuts requires a bridgeless graph")
    label = cut_labels(g)
    pair_cuts = {frozenset(cut) for cut in two_cuts(g, label)}
    cuts = set(pair_cuts)
    if k == 3:
        groups: dict[int, list[int]] = {}
        for e in g.edge_ids:
            groups.setdefault(label[e], []).append(e)
        stars = {frozenset(g.incident(v)) for v in g.vertices}
        ids = list(g.edge_ids)
        for i, e in enumerate(ids):
            for f in ids[i + 1:]:
                # Groups are in id order: visit each triple e < f < h once.
                group = groups.get(label[e] ^ label[f])
                if group is None or group[-1] <= f or frozenset((e, f)) in pair_cuts:
                    continue
                # A vertex star is a trivial 3-cut: no caller wants one.
                hs = [h for h in group if h > f and frozenset((e, f, h)) not in stars]
                if not hs:
                    continue
                br = bridges_skipping(g, frozenset((e, f))) or ()
                for h in hs:
                    if h in br and frozenset((e, h)) not in pair_cuts \
                            and frozenset((f, h)) not in pair_cuts:
                        cuts.add(frozenset((e, f, h)))
    records = [_cut_record(g, c) for c in cuts]
    records.sort(key=lambda c: (c.size, tuple(sorted(c.edge_ids))))
    return records


def side_completion(g: MultiGraph, side: frozenset[int], ids: tuple[int, ...]
                    ) -> tuple[CubicGraph, list[int], list[int], tuple[int, ...]]:
    """(completion graph, side endpoints, outer endpoints, added edge ids) of
    a cut side, in the order of ``ids``.  A 2-cut side gets one virtual edge
    joining its two endpoints; a 3-cut side gets a hub vertex joined to its
    three endpoints.  By the parity lemma the cut edges of a 3-edge-coloured
    graph carry one colour (2-cut) or three distinct colours (3-cut), so the
    added edges can stand for them in a colouring."""
    inner, outer = [], []
    for e in ids:
        u, v = g.endpoints(e)
        inner.append(u if u in side else v)
        outer.append(v if u in side else u)
    if len(set(inner)) != len(ids):
        raise CertificationError("cut edges share a side vertex (bridge upstream)")
    edges = {e: g.endpoints(e) for e in g.induced_edge_ids(side)}
    base = g.max_edge_id() + 1
    if len(ids) == 2:
        added = (base,)
        edges[base] = (inner[0], inner[1])
    else:
        y = max(g.vertices) + 1
        added = tuple(base + i for i in range(3))
        edges.update({a: (y, s) for a, s in zip(added, inner)})
    return CubicGraph(edges), inner, outer, added


def edges_in_small_cuts(g: MultiGraph) -> tuple[frozenset[int], frozenset[int]]:
    """(E2, E3): edges in some 2-edge-cut, and edges in some minimal
    independent-edge cut of size <= 3."""
    cuts = small_cuts(g, 3)
    e2 = frozenset(e for c in cuts if c.size == 2 for e in c.edge_ids)
    e3 = frozenset(e for c in cuts if c.independent for e in c.edge_ids)
    return e2, e3


def cyclic_edge_connectivity(g: MultiGraph) -> int:
    """Minimum size of an edge-cut separating two components that each
    contain a circuit.

    Exact via max-flow between pairs of vertex-disjoint chordless circuits of
    length <= 9; raises NotDefined below n = 8 where the notion degenerates.
    On every graph this package targets, each side of an optimal cut contains
    such a short circuit (cross-checked against an exhaustive oracle in the
    test suite).
    """
    if g.n < 8:
        raise NotDefined(f"cyclic edge connectivity undefined for n={g.n}")
    if not is_connected(g):
        raise NotDefined("graph must be connected")
    circuits = [c for c in enumerate_circuits_up_to(g, 9) if _is_chordless(g, c.vertex_set)]
    # A shortest circuit is chordless, so no chordless circuit means girth > 9.
    if not circuits:
        raise NotDefined("cyclic edge connectivity supported only for girth <= 9")
    # Distinct vertex sets suffice; the flow only sees the sets.
    vertex_sets = sorted({c.vertex_set for c in circuits}, key=sorted)
    best: int | None = None
    for a, b in itertools.combinations(vertex_sets, 2):
        if a & b:
            continue
        flow = _min_edge_cut_between(g, a, b, stop_at=best)
        if best is None or flow < best:
            best = flow
            if best == 1:
                break
    if best is None:
        raise NotDefined("no two vertex-disjoint circuits exist")
    return best


def _is_chordless(g: MultiGraph, vs: frozenset[int]) -> bool:
    return len(g.induced_edge_ids(vs)) == len(vs)


def _min_edge_cut_between(
    g: MultiGraph, side_a: frozenset[int], side_b: frozenset[int], stop_at: int | None
) -> int:
    """Unit-capacity max-flow between two contracted vertex sets.

    Stops early once the flow reaches ``stop_at`` since larger values cannot
    improve the caller's minimum.
    """
    contract: dict[int, int] = {}
    for v in g.vertices:
        contract[v] = -1 if v in side_a else (-2 if v in side_b else v)
    # Residual as per-edge direction flags; BFS augmentation.
    used: dict[int, int] = {e: 0 for e in g.edge_ids}  # -1/0/+1 flow along sorted order
    flow = 0
    while stop_at is None or flow < stop_at:
        parent: dict[int, tuple[int, int, int]] = {}
        seen = {-1}
        queue = [-1]
        reached = False
        while queue and not reached:
            x = queue.pop(0)
            verts = side_a if x == -1 else (side_b if x == -2 else (x,))
            for v in verts:
                for e in g.incident(v):
                    w = contract[g.other_end(e, v)]
                    u, _ = g.endpoints(e)
                    direction = 1 if v == u else -1
                    if used[e] * direction >= 1:
                        continue  # saturated in this direction
                    if w in seen:
                        continue
                    seen.add(w)
                    parent[w] = (x, e, direction)
                    if w == -2:
                        reached = True
                        break
                    queue.append(w)
                if reached:
                    break
        if not reached:
            break
        x = -2
        while x != -1:
            px, e, direction = parent[x]
            used[e] += direction
            x = px
        flow += 1
    return flow
