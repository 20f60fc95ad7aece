"""2-factors: circuit decompositions of spanning 2-regular edge sets.

The invariant I(M) sums (7 - |C|_o)/2 over circuits, where |C|_o is the
length for odd circuits and length + 7 for even ones.  The circuits of a
2-factor cover each vertex once, so their lengths sum to n and the sum equals
7k/2 - n/2 for k odd circuits; ``TwoFactor.invariant_I`` is that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidFactor
from .graphs import Circuit, MultiGraph


@dataclass(frozen=True)
class TwoFactor:
    circuits: tuple[Circuit, ...]
    edge_ids: frozenset[int]
    n: int

    @property
    def odd_count(self) -> int:
        return sum(1 for c in self.circuits if c.is_odd)

    @property
    def count5(self) -> int:
        return sum(1 for c in self.circuits if c.length == 5)

    @property
    def count3(self) -> int:
        return sum(1 for c in self.circuits if c.length == 3)

    @property
    def invariant_I(self) -> Fraction:
        """I(M) = sum over circuits of (7 - |C|_o)/2, which is 7k/2 - n/2."""
        return Fraction(7 * self.odd_count - self.n, 2)

    def length_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.circuits:
            out[c.length] = out.get(c.length, 0) + 1
        return dict(sorted(out.items()))


def two_factor_from_edges(g: MultiGraph, edge_ids: frozenset[int]) -> TwoFactor:
    """Decompose a spanning 2-regular edge subset into circuits."""
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    graph_edges = set(g.edge_ids)
    for e in edge_ids:
        if e not in graph_edges:
            raise InvalidFactor(f"edge {e} not in graph")
        u, v = g.endpoints(e)
        incident[u].append(e)
        incident[v].append(e)
    bad = [v for v, inc in incident.items() if len(inc) != 2]
    if bad:
        raise InvalidFactor(f"vertices without degree 2 in factor: {sorted(bad)[:5]}")

    unused = set(edge_ids)
    circuits: list[Circuit] = []
    for start in g.vertices:
        inc = [e for e in incident[start] if e in unused]
        if not inc:
            continue
        walk_v = [start]
        walk_e: list[int] = []
        v = start
        prev: int | None = None
        while True:
            nxt = next(e for e in incident[v] if e in unused and e != prev)
            unused.discard(nxt)
            walk_e.append(nxt)
            v = g.other_end(nxt, v)
            prev = nxt
            if v == start:
                break
            walk_v.append(v)
        circuits.append(Circuit.from_walk(walk_v, walk_e))
    circuits.sort(key=lambda c: (c.length, c.vertices, c.edge_ids))
    return TwoFactor(tuple(circuits), frozenset(edge_ids), g.n)


def complement_two_factor(g: MultiGraph, matching: frozenset[int]) -> TwoFactor:
    """The 2-factor complementary to a perfect matching of a cubic graph."""
    cover: dict[int, int] = {}
    for e in matching:
        u, v = g.endpoints(e)
        cover[u] = cover.get(u, 0) + 1
        cover[v] = cover.get(v, 0) + 1
    if len(cover) != g.n or any(c != 1 for c in cover.values()):
        raise InvalidFactor("edge set is not a perfect matching")
    return two_factor_from_edges(g, frozenset(g.edge_ids) - matching)
