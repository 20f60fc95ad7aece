"""Exact 3-edge-colorability and even 2-factors from colorings.

``three_edge_color`` is verdict-style: it returns an ``EdgeColoring`` or the
sentinel ``UNCOLORABLE``.  Exactness matters; a wrong verdict breaks the
reduction routing, so the search is exhaustive (unit propagation plus
most-constrained branching) with a 2-edge-cut decomposition in front that
splits chains of uncolorable blocks into Petersen-sized pieces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .connectivity import bridges, bridges_skipping, cut_labels, side_completion
from .errors import CertificationError, ImproperColoring, Sentinel
from .factors import TwoFactor, two_factor_from_edges
from .graphs import CubicGraph, MultiGraph, connected_components

COLORS = (0, 1, 2)

UNCOLORABLE = Sentinel("UNCOLORABLE")


@dataclass(frozen=True)
class EdgeColoring:
    """Proper 3-edge-coloring: edge-id -> color in {0, 1, 2}."""

    assignment: dict[int, int]

    def color(self, eid: int) -> int:
        return self.assignment[eid]

    def color_class(self, color: int) -> frozenset[int]:
        return frozenset(e for e, c in self.assignment.items() if c == color)

    def is_proper_on(self, g: MultiGraph) -> bool:
        if set(self.assignment) != set(g.edge_ids):
            return False
        if any(c not in COLORS for c in self.assignment.values()):
            return False
        for v in g.vertices:
            cols = [self.assignment[e] for e in g.incident(v)]
            if len(set(cols)) != len(cols):
                return False
        return True


def three_edge_color(g: CubicGraph) -> EdgeColoring | Sentinel:
    """A proper 3-edge-coloring of g, or the verdict UNCOLORABLE.

    A cubic graph with a bridge is never 3-edge-colorable (each color class
    would be a perfect matching and all three would need the bridge).
    """
    if bridges(g):
        return UNCOLORABLE
    return _color_connected(g)


def _color_connected(g: MultiGraph) -> EdgeColoring | Sentinel:
    comps = connected_components(g)
    if len(comps) > 1:
        merged: dict[int, int] = {}
        for comp in comps:
            sub = MultiGraph({e: g.endpoints(e) for e in g.induced_edge_ids(comp)})
            res = _color_connected(sub)
            if res is UNCOLORABLE:
                return UNCOLORABLE
            merged.update(res.assignment)
        return EdgeColoring(merged)

    cut = _find_two_cut(g)
    if cut is not None:
        return _color_via_two_cut(g, cut)
    return _backtrack_color(g)


def _find_two_cut(g: MultiGraph) -> tuple[int, int] | None:
    """The first edge in id order that lies in a 2-cut of the bridgeless g,
    with the smallest edge it pairs with.  Both edges of a 2-cut carry one
    cut label, so only edges that share their label are tried."""
    label = cut_labels(g)
    shared = Counter(label.values())
    for e in g.edge_ids:
        if shared[label[e]] < 2:
            continue
        br = bridges_skipping(g, frozenset((e,)))
        if br:
            return e, br[0]
    return None


def _color_via_two_cut(g: MultiGraph, cut: tuple[int, int]) -> EdgeColoring | Sentinel:
    """Split on a 2-edge-cut.

    In any proper coloring of a (sub)cubic graph both cut edges carry the same
    color (parity of missing colors on a side), so g is colorable iff both
    side completions are; the witness is spliced back with one color
    permutation.
    """
    comps = connected_components(g, removed_edges=frozenset(cut))
    if len(comps) != 2:
        raise CertificationError("a 2-edge-cut must leave exactly two components")
    comps.sort(key=len)  # fail fast on the small side
    sides = []
    for comp in comps:
        completion, _, _, (virt,) = side_completion(g, frozenset(comp), cut)
        res = _color_connected(completion)
        if res is UNCOLORABLE:
            return UNCOLORABLE
        sides.append(res)
    a, b = sides
    alpha = a.assignment[virt]
    beta = b.assignment[virt]
    # Swap beta <-> alpha on side b so the virtual edges agree.
    perm = {c: c for c in COLORS}
    perm[beta], perm[alpha] = alpha, beta
    merged = {e: c for e, c in a.assignment.items() if e != virt}
    merged.update({e: perm[c] for e, c in b.assignment.items() if e != virt})
    for e in cut:
        merged[e] = alpha
    return EdgeColoring(merged)


def _backtrack_color(g: MultiGraph) -> EdgeColoring | Sentinel:
    ids = list(g.edge_ids)
    color: dict[int, int] = {}
    used: dict[int, set[int]] = {v: set() for v in g.vertices}

    def available(eid: int) -> set[int]:
        u, v = g.endpoints(eid)
        return set(COLORS) - used[u] - used[v]

    def assign(eid: int, c: int, trail: list[int]) -> bool:
        u, v = g.endpoints(eid)
        if c in used[u] or c in used[v]:
            return False
        color[eid] = c
        used[u].add(c)
        used[v].add(c)
        trail.append(eid)
        return True

    def undo(trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            eid = trail.pop()
            c = color.pop(eid)
            u, v = g.endpoints(eid)
            used[u].discard(c)
            used[v].discard(c)

    def propagate(trail: list[int]) -> bool:
        # Assign every edge with a single remaining color until fixpoint.
        changed = True
        while changed:
            changed = False
            for eid in ids:
                if eid in color:
                    continue
                av = available(eid)
                if not av:
                    return False
                if len(av) == 1:
                    if not assign(eid, next(iter(av)), trail):
                        return False
                    changed = True
        return True

    def solve(trail: list[int]) -> bool:
        if not propagate(trail):
            return False
        pending = [(len(available(e)), e) for e in ids if e not in color]
        if not pending:
            return True
        _, eid = min(pending)
        for c in sorted(available(eid)):
            mark = len(trail)
            if assign(eid, c, trail) and solve(trail):
                return True
            undo(trail, mark)
        return False

    trail: list[int] = []
    # Break color symmetry by fixing the colors around the first vertex.
    first = g.vertices[0]
    for c, eid in enumerate(g.incident(first)):
        if not assign(eid, c, trail):
            return UNCOLORABLE
    if solve(trail):
        return EdgeColoring(dict(color))
    return UNCOLORABLE


def even_two_factor_from_coloring(g: CubicGraph, coloring: EdgeColoring) -> TwoFactor:
    """Union of two color classes: a 2-factor with even circuits only."""
    if not coloring.is_proper_on(g):
        raise ImproperColoring("coloring is not proper on this graph")
    edges = frozenset(e for e in g.edge_ids if coloring.color(e) != 0)
    factor = two_factor_from_edges(g, edges)
    if factor.odd_count:
        raise CertificationError("a colouring's 2-factor must have only even circuits")
    return factor
