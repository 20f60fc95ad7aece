"""Cubic multigraph representation, circuit/girth primitives, and the
exact isomorphism test.

Vertices are arbitrary non-negative integers (not necessarily contiguous),
which keeps vertex identities stable across reduction steps.  Edges carry
integer ids that are unique within a graph and stable under queries; derived
graphs mint fresh ids for new edges and keep the ids of surviving edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import LoopEdge, NotCubic


class MultiGraph:
    """Immutable undirected multigraph without self-loops."""

    __slots__ = ("_edge", "_adj", "_vertices")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]] | Mapping[int, tuple[int, int]],
        vertices: Iterable[int] | None = None,
    ):
        if isinstance(edges, Mapping):
            edge_map = {int(k): (int(u), int(v)) for k, (u, v) in edges.items()}
        else:
            edge_map = {i: (int(u), int(v)) for i, (u, v) in enumerate(edges)}
        for eid, (u, v) in edge_map.items():
            if u == v:
                raise LoopEdge(f"edge {eid} is a loop at vertex {u}")
        vset = {v for uv in edge_map.values() for v in uv}
        if vertices is not None:
            vset |= {int(v) for v in vertices}
        self._edge = {eid: tuple(sorted(uv)) for eid, uv in sorted(edge_map.items())}
        adj: dict[int, list[int]] = {v: [] for v in sorted(vset)}
        for eid, (u, v) in self._edge.items():
            adj[u].append(eid)
            adj[v].append(eid)
        self._adj = {v: tuple(sorted(ids)) for v, ids in adj.items()}
        self._vertices = tuple(sorted(vset))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edge)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(self._edge)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edge[eid]

    def edge_items(self) -> Iterator[tuple[int, tuple[int, int]]]:
        return iter(self._edge.items())

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def incident(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def other_end(self, eid: int, v: int) -> int:
        u, w = self._edge[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise KeyError(f"vertex {v} not on edge {eid}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.other_end(e, v) for e in self._adj[v]))

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        a, b = min(u, v), max(u, v)
        return tuple(e for e in self._adj.get(a, ()) if self._edge[e] == (a, b))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges_between(u, v))

    def is_simple(self) -> bool:
        return len({uv for uv in self._edge.values()}) == self.m

    def max_edge_id(self) -> int:
        return max(self._edge, default=-1)

    def induced_edge_ids(self, vertex_set: Iterable[int]) -> tuple[int, ...]:
        vs = set(vertex_set)
        return tuple(e for e, (u, v) in self._edge.items() if u in vs and v in vs)

    def boundary_edge_ids(self, vertex_set: Iterable[int]) -> tuple[int, ...]:
        vs = set(vertex_set)
        return tuple(
            e for e, (u, v) in self._edge.items() if (u in vs) != (v in vs)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class CubicGraph(MultiGraph):
    """Multigraph in which every vertex has degree exactly 3."""

    def __init__(self, edges, vertices=None):
        super().__init__(edges, vertices)
        bad = [v for v in self.vertices if self.degree(v) != 3]
        if bad:
            raise NotCubic(f"vertices with degree != 3: {bad[:5]}")


class PatternGraph(MultiGraph):
    """Near-cubic pattern (degrees 2 and 3), used for subgraph search."""

    def __init__(self, edges, vertices=None):
        super().__init__(edges, vertices)
        bad = [v for v in self.vertices if self.degree(v) not in (2, 3)]
        if bad:
            raise ValueError(f"pattern vertices with degree not in {{2,3}}: {bad}")

    @property
    def degree2_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.degree(v) == 2)


# The fixed labeling of the Petersen graph used throughout: outer 5-circuit
# 0..4, spokes i-(i+5), inner 5-circuit 5,7,9,6,8.
PETERSEN_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)


@dataclass(frozen=True)
class Circuit:
    """A circuit given as aligned cyclic vertex and edge-id sequences.

    ``edge_ids[i]`` joins ``vertices[i]`` and ``vertices[(i+1) % length]``.
    Instances are canonicalized to the lexicographically smallest rotation or
    reflection of the paired sequences, which starts at the least vertex, so
    equal circuits compare equal.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1

    @classmethod
    def from_walk(cls, vertices: Iterable[int], edge_ids: Iterable[int]) -> "Circuit":
        vs = tuple(vertices)
        es = tuple(edge_ids)
        if len(vs) != len(es) or len(vs) < 2:
            raise ValueError("circuit needs aligned sequences of length >= 2")
        if len(set(vs)) != len(vs) or len(set(es)) != len(es):
            raise ValueError("circuit must not repeat vertices or edges")
        # Vertices are distinct, so only the two walks from the least vertex
        # can be the least rotation or reflection.
        r = vs.index(min(vs))
        vs, es = vs[r:] + vs[:r], es[r:] + es[:r]
        return cls(*min((vs, es), _reverse_walk(vs, es)))


def _reverse_walk(
    vs: tuple[int, ...], es: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Reversing v0 v1 ... v_{k-1} keeps v0 first; edge i of the reverse joins
    # v_{-i} and v_{-i-1}, which is edge (k-1-i) of the original shifted once.
    k = len(vs)
    rv = (vs[0],) + tuple(reversed(vs[1:]))
    re_ = tuple(es[(k - 1 - i) % k] for i in range(k))
    return rv, re_


def girth(g: MultiGraph) -> int:
    """Length of a shortest circuit; parallel edges give girth 2.

    Computed as min over edges e of 1 + dist(u, v) in g - e, which is exact
    for multigraphs of any girth.
    """
    best = None
    for eid, (u, v) in g.edge_items():
        d = _bfs_dist_avoiding(g, u, v, eid)
        if d is not None and (best is None or d + 1 < best):
            best = d + 1
            if best == 2:
                break
    if best is None:
        raise ValueError("graph is a forest; no circuit exists")
    return best


def _bfs_dist_avoiding(g: MultiGraph, src: int, dst: int, skip_eid: int) -> int | None:
    if src == dst:
        return 0
    dist = {src: 0}
    queue = [src]
    for v in queue:
        for e in g.incident(v):
            if e == skip_eid:
                continue
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == dst:
                    return dist[w]
                queue.append(w)
    return None


MAX_CIRCUIT_LENGTH = 9


def enumerate_circuits_up_to(g: MultiGraph, length_cap: int) -> list[Circuit]:
    """All distinct circuits of length <= length_cap, canonicalized.

    The cap is limited to 9: nothing in this package needs longer explicit
    circuits, and the DFS enumeration is only tuned for that range.
    """
    if length_cap > MAX_CIRCUIT_LENGTH:
        raise ValueError(f"length cap {length_cap} exceeds {MAX_CIRCUIT_LENGTH}")
    found: dict[frozenset[int], Circuit] = {}
    for start in g.vertices:
        _circuit_dfs(g, start, [start], [], set(), length_cap, found)
    return sorted(found.values(), key=lambda c: (c.length, c.vertices, c.edge_ids))


def _circuit_dfs(
    g: MultiGraph,
    start: int,
    path_v: list[int],
    path_e: list[int],
    on_path: set[int],
    cap: int,
    found: dict[frozenset[int], Circuit],
) -> None:
    v = path_v[-1]
    for eid in g.incident(v):
        w = g.other_end(eid, v)
        if w == start and len(path_e) >= 1:
            if len(path_e) == 1 and eid == path_e[0]:
                continue  # would retrace the single edge, not a 2-circuit
            key = frozenset(path_e + [eid])
            if key not in found:
                found[key] = Circuit.from_walk(path_v, path_e + [eid])
            continue
        # Anchor each circuit at its minimum vertex to avoid rotations.
        if w <= start or w in on_path:
            continue
        if len(path_e) + 2 > cap:
            continue
        path_v.append(w)
        path_e.append(eid)
        on_path.add(w)
        _circuit_dfs(g, start, path_v, path_e, on_path, cap, found)
        on_path.remove(w)
        path_e.pop()
        path_v.pop()


def connected_components(g: MultiGraph, removed_edges: frozenset[int] = frozenset()) -> list[set[int]]:
    seen: set[int] = set()
    comps: list[set[int]] = []
    for v0 in g.vertices:
        if v0 in seen:
            continue
        comp = {v0}
        queue = [v0]
        for v in queue:
            for e in g.incident(v):
                if e in removed_edges:
                    continue
                w = g.other_end(e, v)
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(g: MultiGraph) -> bool:
    """Exactly one component; the graph with no vertex has none."""
    return len(connected_components(g)) == 1


_PROFILE_DEPTH = 3


def vertex_profiles(g: MultiGraph) -> dict[int, tuple]:
    """Isomorphism-invariant per-vertex profile: incident edge multiplicities
    plus the histogram of BFS distances up to ``_PROFILE_DEPTH``.  Regular
    graphs defeat plain refinement, so this is what prunes the matcher; the
    sorted multiset of profiles is the cheap invariant compared before it."""
    out: dict[int, tuple] = {}
    for v in g.vertices:
        mults = tuple(sorted(len(g.edges_between(v, w)) for w in set(g.neighbors(v))))
        dist = {v: 0}
        queue = [v]
        hist: dict[int, int] = {}
        for x in queue:
            dx = dist[x]
            if dx >= _PROFILE_DEPTH:
                continue
            for e in g.incident(x):
                w = g.other_end(e, x)
                if w not in dist:
                    dist[w] = dx + 1
                    hist[dx + 1] = hist.get(dx + 1, 0) + 1
                    queue.append(w)
        out[v] = (mults, tuple(sorted(hist.items())))
    return out


def match_isomorphic(g1: MultiGraph, prof1: dict[int, tuple],
                     g2: MultiGraph, prof2: dict[int, tuple]) -> bool:
    """Exact isomorphism test by profile-pruned backtracking.

    Assumes n and m already agree.  At each step the per-pair edge
    multiplicities to mapped neighbours and the total edge count into the
    mapped set are matched, which pins the whole adjacency.
    """
    order: list[int] = []
    placed: set[int] = set()
    for root in sorted(g1.vertices):
        if root in placed:
            continue
        placed.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g1.neighbors(v):
                if w not in placed:
                    placed.add(w)
                    queue.append(w)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        mapped_nbrs = [
            (mapping[w], len(g1.edges_between(u, w)))
            for w in set(g1.neighbors(u))
            if w in mapping
        ]
        into_mapped = sum(m for _, m in mapped_nbrs)
        if mapped_nbrs:
            cands = sorted(set(g2.neighbors(mapped_nbrs[0][0])))
        else:
            cands = [x for x in g2.vertices if x not in used]
        for x in cands:
            if x in used or prof2[x] != prof1[u]:
                continue
            if any(len(g2.edges_between(x, y)) != m for y, m in mapped_nbrs):
                continue
            if sum(1 for e in g2.incident(x) if g2.other_end(e, x) in used) != into_mapped:
                continue
            mapping[u] = x
            used.add(x)
            if rec(i + 1):
                return True
            del mapping[u]
            used.discard(x)
        return False

    return rec(0)


def is_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    p1, p2 = vertex_profiles(g1), vertex_profiles(g2)
    return (sorted(p1.values()) == sorted(p2.values())
            and match_isomorphic(g1, p1, g2, p2))


def is_petersen(g: MultiGraph) -> bool:
    """Whether g is the Petersen graph.

    A cubic graph of girth 5 has at least 1 + 3 + 6 = 10 vertices (the Moore
    bound), and Petersen is the only one that meets it (Hoffman & Singleton,
    IBM J. Res. Dev. 1960).  So on 10 vertices and 15 edges, cubic with
    girth 5 is the whole test.
    """
    return (g.n == 10 and g.m == 15
            and all(g.degree(v) == 3 for v in g.vertices)
            and girth(g) == 5)
