"""Petersen-derived patterns P1/P2/P3: search, classification, boundary
edges, and the census (``take_census``) that both bounds are certified from.

P1 is the Petersen graph minus an edge, P2 the Petersen graph with an edge
subdivided twice, P3 the Petersen graph minus a vertex.  Occurrences are
counted as subgraphs: identity is the host edge set, so pattern automorphisms
collapse.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import CertificationError, OverlapViolation, UnclassifiableP3b
from .graphs import Circuit, MultiGraph, PatternGraph, PETERSEN_EDGES, enumerate_circuits_up_to
from .matching import has_two_factor

KINDS = ("P1", "P2", "P3")

P1_CLASS = "P1-class"
P2_CLASS = "P2-class"
P3A = "P3a"
P3B1 = "P3b1"
P3B2 = "P3b2"
UNCLASSIFIED = "unclassified"


@functools.cache
def pattern_graph(kind: str) -> PatternGraph:
    base = list(PETERSEN_EDGES)
    if kind == "P1":
        base.remove((0, 1))
        return PatternGraph(base)
    if kind == "P2":
        base.remove((0, 1))
        base += [(0, 10), (10, 11), (11, 1)]
        return PatternGraph(base)
    if kind == "P3":
        return PatternGraph([e for e in base if 0 not in e])
    raise ValueError(f"unknown pattern kind {kind!r}")


@dataclass(frozen=True)
class PatternOccurrence:
    kind: str
    vertex_map: tuple[tuple[int, int], ...]  # (pattern vertex, host vertex)
    edge_set: frozenset[int]
    boundary: tuple[int, ...]
    class_tag: str = UNCLASSIFIED
    e_S: int | None = None
    E_S: frozenset[int] | None = None

    @property
    def host_vertices(self) -> frozenset[int]:
        return frozenset(h for _, h in self.vertex_map)

    @property
    def inner_vertices(self) -> frozenset[int]:
        """Host images of pattern vertices of degree 3."""
        pat = pattern_graph(self.kind)
        return frozenset(h for p, h in self.vertex_map if pat.degree(p) == 3)

    @property
    def degree2_images(self) -> tuple[int, ...]:
        pat = pattern_graph(self.kind)
        return tuple(h for p, h in self.vertex_map if pat.degree(p) == 2)


# The P3 search places pattern vertices in this order; each one after the
# first is drawn from the host neighbours of its first placed neighbour's
# image.  Aut(P3), of order 12, permutes the degree-2 vertices 1, 4, 5 as S3
# and holds one more involution, (2 6)(3 9)(7 8), that fixes them.  Each
# vertex in _P3_ABOVE must have a larger host image than the vertex it
# names, which breaks all of Aut(P3): every P3 vertex image is reached once.
_P3_ORDER = (1, 2, 6, 3, 7, 9, 8, 4, 5)
_P3_ABOVE = {6: 2, 4: 1, 5: 4}

# For each degree-2 vertex c of P3, an automorphism of P3 that swaps 1 and c.
# An extension that attaches vertex 0 of P1 or P2 to the two degree-2 images
# other than c's maps the pattern through it, so pattern vertex 1 lands on c.
_P3_SWAP = {
    1: {v: v for v in range(1, 10)},
    4: {1: 4, 2: 3, 3: 2, 4: 1, 5: 5, 6: 9, 7: 8, 8: 7, 9: 6},
    5: {1: 5, 2: 8, 3: 3, 4: 4, 5: 1, 6: 7, 7: 6, 8: 2, 9: 9},
}


@functools.cache
def _p3_plan() -> tuple[tuple[int, int, tuple[int, ...], int | None], ...]:
    """(pattern vertex, anchor, other placed neighbours, must exceed) per step
    of the P3 search after vertex 1."""
    pat = pattern_graph("P3")
    plan = []
    for i, p in enumerate(_P3_ORDER[1:], 1):
        placed = [q for q in _P3_ORDER[:i] if pat.has_edge(p, q)]
        plan.append((p, placed[0], tuple(placed[1:]), _P3_ABOVE.get(p)))
    return tuple(plan)


def find_occurrences(g: MultiGraph, *kinds: str) -> list[PatternOccurrence]:
    """Every occurrence of the given kinds, deduplicated by host edge set and
    sorted by (kind, edge set).

    One P3 search serves all three kinds.  P1 minus vertex 0 is P3, so a P1
    occurrence is a P3 occurrence plus an outside vertex x joined to two of
    its degree-2 images.  P2 minus {0, 10, 11} is P3, so a P2 occurrence adds
    to that x a path x-y-z of fresh vertices whose end z is joined to the
    third degree-2 image.
    """
    if not kinds or not set(kinds) <= set(KINDS):
        raise ValueError(f"pattern kinds must be among {KINDS}, got {kinds!r}")
    want_p1, want_p2 = "P1" in kinds, "P2" in kinds
    # links[v][w]: ids of the edges between v and w.
    links: dict[int, dict[int, list[int]]] = {v: {} for v in g.vertices}
    for e, (u, v) in g.edge_items():
        links[u].setdefault(v, []).append(e)
        links[v].setdefault(u, []).append(e)
    found: dict[str, dict[frozenset[int], PatternOccurrence]] = {k: {} for k in KINDS}

    def add(kind: str, vmap: dict[int, int], eset: frozenset[int]) -> None:
        if eset in found[kind]:
            return
        inside = set(vmap.values())
        boundary = sorted(e for v in inside for w, es in links[v].items()
                          if w not in inside for e in es)
        found[kind][eset] = PatternOccurrence(
            kind=kind, vertex_map=tuple(sorted(vmap.items())),
            edge_set=eset, boundary=tuple(boundary))

    def extend(phi: dict[int, int], e3: frozenset[int]) -> None:
        inside = set(phi.values())
        for c in (1, 4, 5):
            a, b = (d for d in (1, 4, 5) if d != c)
            at_a, at_b, dc = links[phi[a]], links[phi[b]], phi[c]
            base = {p: phi[q] for p, q in _P3_SWAP[c].items()}
            for x, xa in at_a.items():
                if x in inside or x not in at_b:
                    continue
                for pair in itertools.product(xa, at_b[x]):
                    e1 = e3.union(pair)
                    if want_p1:
                        add("P1", {**base, 0: x}, e1)
                    if not want_p2:
                        continue
                    for y, xy in links[x].items():
                        if y in inside:
                            continue
                        for z, yz in links[y].items():
                            if z in inside or z == x or dc not in links[z]:
                                continue
                            for path in itertools.product(xy, yz, links[z][dc]):
                                add("P2", {**base, 0: x, 10: y, 11: z}, e1.union(path))

    p3_edges = [uv for _, uv in pattern_graph("P3").edge_items()]
    plan = _p3_plan()
    phi: dict[int, int] = {}
    used: set[int] = set()

    def place(i: int) -> None:
        if i == len(plan):
            for combo in itertools.product(*(links[phi[u]][phi[v]] for u, v in p3_edges)):
                e3 = frozenset(combo)
                add("P3", phi, e3)
                if want_p1 or want_p2:
                    extend(phi, e3)
            return
        p, anchor, checks, above = plan[i]
        floor = phi[above] if above is not None else -1
        for w in links[phi[anchor]]:
            if w <= floor or w in used or any(phi[q] not in links[w] for q in checks):
                continue
            phi[p] = w
            used.add(w)
            place(i + 1)
            used.discard(w)

    for h in g.vertices:
        phi[_P3_ORDER[0]] = h
        used.add(h)
        place(0)
        used.discard(h)
    return [
        occ
        for kind in KINDS if kind in kinds
        for occ in sorted(found[kind].values(), key=lambda o: tuple(sorted(o.edge_set)))
    ]


@dataclass(frozen=True)
class Census:
    """Classified occurrence sets and free 5-circuits, per pipeline mode."""

    mode: str  # "oddness" or "fivecyc"
    p1: tuple[PatternOccurrence, ...]   # P1-class (all P1s in fivecyc mode)
    p2: tuple[PatternOccurrence, ...]
    p3: tuple[PatternOccurrence, ...]
    exception_22: bool = False
    c5: tuple[Circuit, ...] = ()  # the free 5-circuits C5, see take_census

    @property
    def occurrences(self) -> tuple[PatternOccurrence, ...]:
        return self.p1 + self.p2 + self.p3

    @property
    def counts(self) -> tuple[int, int, int, int | None, int | None, int]:
        """The certificate tuple (c5, p1, p2, p3a, p3b, p3): free 5-circuits,
        P1-class, P2, P3a, P3b and all P3 occurrences.  The fivecyc census
        leaves p3a and p3b as None."""
        if self.mode == "fivecyc":
            return (len(self.c5), len(self.p1), 0, None, None, len(self.p3))
        p3a, p3b = self.p3_split()
        return (len(self.c5), len(self.p1), len(self.p2), len(p3a), len(p3b), len(self.p3))

    def p3_split(self) -> tuple[list[PatternOccurrence], list[PatternOccurrence]]:
        p3a = [o for o in self.p3 if o.class_tag == P3A]
        p3b = [o for o in self.p3 if o.class_tag in (P3B1, P3B2)]
        return p3a, p3b


def classify_occurrences(
    g: MultiGraph,
    p1_occs: Sequence[PatternOccurrence],
    p2_occs: Sequence[PatternOccurrence],
    p3_occs: Sequence[PatternOccurrence],
    mode: str = "oddness",
    enforce_disjoint: bool = False,
) -> Census:
    """Build the classified occurrence set for one of the two census modes.

    oddness: P2 = all P2 occurrences, P1 = P1 occurrences not extendable to a
    P2 occurrence, P3 = P3 occurrences not extendable to a P1 occurrence.
    fivecyc: all P1 occurrences count (no P2 filtering) and P2s are ignored.

    Extendability is edge-set inclusion in an occurrence of the larger kind.
    With enforce_disjoint, pairwise disjointness is checked: any vertex
    overlap raises OverlapViolation, except two P2 occurrences on a 22-vertex
    host sharing exactly two vertices and one edge, which is surfaced via the
    exception_22 flag.
    """
    if mode not in ("oddness", "fivecyc"):
        raise ValueError("mode must be 'oddness' or 'fivecyc'")
    p3 = tuple(
        replace(o, class_tag=UNCLASSIFIED)
        for o in p3_occs
        if not any(o.edge_set <= p.edge_set for p in p1_occs)
    )
    if mode == "fivecyc":
        p1 = tuple(replace(o, class_tag=P1_CLASS) for o in p1_occs)
        census = Census("fivecyc", p1, (), p3)
    else:
        p1 = tuple(
            replace(o, class_tag=P1_CLASS)
            for o in p1_occs
            if not any(o.edge_set <= p.edge_set for p in p2_occs)
        )
        p2 = tuple(replace(o, class_tag=P2_CLASS) for o in p2_occs)
        census = Census("oddness", p1, p2, p3)
    if enforce_disjoint:
        census = _check_disjoint(g, census)
    return census


def _check_disjoint(g: MultiGraph, census: Census) -> Census:
    occs = census.occurrences
    offending = [
        (a, b)
        for a, b in itertools.combinations(occs, 2)
        if a.host_vertices & b.host_vertices
    ]
    if not offending:
        return census
    for a, b in offending:
        is_exception = (
            g.n == 22
            and a.kind == "P2"
            and b.kind == "P2"
            and len(a.host_vertices & b.host_vertices) == 2
            and len(a.edge_set & b.edge_set) == 1
        )
        if not is_exception:
            raise OverlapViolation(
                f"occurrences overlap: {sorted(a.host_vertices & b.host_vertices)}"
            )
    return replace(census, exception_22=True)


def select_boundary_edges(
    g: MultiGraph,
    occ: PatternOccurrence,
    circuits: Sequence[Circuit],
    census: Census,
) -> PatternOccurrence:
    """Fill e_S / E_S and finish the class tag of one occurrence.

    For P1/P2 occurrences e_S is the smallest boundary edge id.  For P3
    occurrences E_S is the lexicographically smallest boundary pair such that
    (1) the pair does not lie on a common 7-circuit that goes through the
    occurrence and can be contained in a 2-factor of g, and (2) the pair does
    not lie on a common 9-circuit through the occurrence and another
    classified occurrence.  Without such a pair the occurrence is P3b and the
    configuration (common vertex for all three outside neighbors, or distinct
    common neighbors per pair) decides P3b1/P3b2.

    ``circuits`` must include every circuit of length <= 9 through the
    occurrence.
    """
    if occ.kind in ("P1", "P2"):
        if not occ.boundary:
            raise CertificationError("boundary must be nonempty on proper hosts")
        return replace(occ, e_S=min(occ.boundary))

    if occ.kind != "P3":
        raise CertificationError(f"unknown pattern kind {occ.kind!r}")
    if len(occ.boundary) != 3:
        raise CertificationError("P3 occurrence must have 3 boundary edges")
    through = [c for c in circuits if goes_through(c, occ)]
    others = [o for o in census.occurrences if o.edge_set != occ.edge_set]
    for pair in itertools.combinations(sorted(occ.boundary), 2):
        pset = set(pair)
        bad = False
        for c in through:
            if not pset <= c.edge_set:
                continue
            if c.length == 7 and has_two_factor(g, c.vertex_set):
                bad = True
                break
            if c.length == 9 and any(goes_through(c, o) for o in others):
                bad = True
                break
        if not bad:
            return replace(occ, class_tag=P3A, E_S=frozenset(pair))

    return _classify_p3b(g, occ)


def take_census(g: MultiGraph, mode: str) -> Census:
    """The census both bounds are certified from, on a reduced graph.

    Searches P1 and P3 (and P2 in oddness mode), classifies them with
    disjointness enforced, and gives each P1/P2 occurrence its e_S.  The
    oddness census also selects the P3 boundary pairs, which needs every
    circuit up to length 9; the fivecyc census needs only the 5-circuits.
    C5 holds the 5-circuits that intersect (fivecyc) or go through
    (oddness) no classified occurrence.
    """
    oddness = mode == "oddness"
    occs = find_occurrences(g, "P1", "P2", "P3") if oddness else find_occurrences(g, "P1", "P3")
    census = classify_occurrences(
        g,
        *([o for o in occs if o.kind == kind] for kind in KINDS),
        mode=mode,
        enforce_disjoint=True,
    )
    circuits = enumerate_circuits_up_to(g, 9 if oddness else 5)

    def fill(occs: tuple[PatternOccurrence, ...]) -> tuple[PatternOccurrence, ...]:
        return tuple(select_boundary_edges(g, o, circuits, census) for o in occs)

    census = replace(census, p1=fill(census.p1), p2=fill(census.p2),
                     p3=fill(census.p3) if oddness else census.p3)
    meets = goes_through if oddness else circuit_intersects
    c5 = tuple(
        c for c in circuits
        if c.length == 5 and not any(meets(c, s) for s in census.occurrences)
    )
    return replace(census, c5=c5)


def goes_through(c: Circuit, occ: PatternOccurrence) -> bool:
    """A circuit goes through an occurrence if they share at least 2 edges."""
    return len(c.edge_set & occ.edge_set) >= 2


def circuit_intersects(c: Circuit, occ: PatternOccurrence) -> bool:
    """Weaker predicate: sharing at least one vertex."""
    return bool(c.vertex_set & occ.host_vertices)


def _classify_p3b(g: MultiGraph, occ: PatternOccurrence) -> PatternOccurrence:
    w: list[int] = []
    for v in occ.degree2_images:
        outside = [e for e in g.incident(v) if e in occ.boundary]
        if len(outside) != 1:
            raise CertificationError("a P3 degree-2 vertex must have one boundary edge")
        w.append(g.other_end(outside[0], v))
    if len(set(w)) != 3:
        raise UnclassifiableP3b(
            "outside neighbours of a classified P3 occurrence must be distinct"
        )
    w1, w2, w3 = w
    common_all = set(g.neighbors(w1)) & set(g.neighbors(w2)) & set(g.neighbors(w3))
    if common_all:
        return replace(occ, class_tag=P3B1, E_S=frozenset())
    wset = set(w)
    pair_commons = []
    for a, b in itertools.combinations(w, 2):
        commons = (set(g.neighbors(a)) & set(g.neighbors(b))) - wset
        pair_commons.append(sorted(commons))
    for combo in itertools.product(*pair_commons):
        if len(set(combo)) == 3:
            return replace(occ, class_tag=P3B2, E_S=frozenset())
    raise UnclassifiableP3b(
        "P3 occurrence without admissible pair matches neither boundary "
        "configuration; host violates the reduced-graph preconditions"
    )
