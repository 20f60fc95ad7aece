"""Inputs for the certify benchmark's four workloads.

Each generator takes the workload seed and returns the graphs the library is
given; nothing else about the seed reaches the library.  ``validate`` checks
the properties each workload was chosen for before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

from pentafactor import (
    CubicGraph,
    UNCOLORABLE,
    bridges,
    find_occurrences,
    full_reduce,
    gen_chain_family,
    gen_p3_ring,
    gen_petersen,
    three_edge_color,
)
from pentafactor.graphs import PETERSEN_EDGES
from pentafactor.workbench import load_graphs

CENSUS14 = (Path(__file__).resolve().parents[1]
            / "tests" / "data" / "cubic_simple_connected_14.g6")

# Inverse-reduction recipes of the ``reducible`` workload.  A recipe (how
# many gadgets of each kind) is fixed so that every seed does a similar
# amount of work; the seed picks the order and where each gadget goes.
#   T: expand a vertex into a triangle           (undone by a girth step)
#   H: replace a vertex by Heawood minus a vertex (undone by a ThreeCut step)
#   M: splice Moebius-Kantor minus an edge into an edge (undone by TwoCut)
REDUCIBLE_RECIPES = ("THM", "TMH", "TTHM", "THMM", "TTHMM")
# Each base gets every recipe in this many seeded placements.  The counts
# differ so that the median latency falls inside the chain:1 cluster, not on
# the gap between the two clusters.  p3ring:4 is not a base: it has no 2-cut
# for the colouring to split on, so the colouring cost of an input swung by
# up to 45 % with the placement, and the workload's by 8 % from seed to seed.
REDUCIBLE_BASES = {"petersen": 2, "chain:1": 3}

# Ring sizes of the ``p2ring`` workload, one entry per input in a pass; k = 3
# repeats so that a pass yields enough latency samples.  k = 5 takes seconds
# per solve and k = 6 exceeds the solver's tie-break cap.
P2RING_SIZES = (3, 3, 3, 3, 3, 3, 3, 4)

_HEAWOOD = nx.heawood_graph()
_MOEBIUS_KANTOR = nx.moebius_kantor_graph()


@dataclass(frozen=True)
class Input:
    """One benchmark input: a stable name and the graph."""

    name: str
    graph: CubicGraph


def fresh(g: CubicGraph) -> CubicGraph:
    """An equal graph that shares no object with ``g``, so that nothing a
    previous pass attached to a graph object can be reused."""
    return CubicGraph(dict(g.edge_items()))


# -- snarks ----------------------------------------------------------------------


def snarks(seed: int) -> list[Input]:
    """Irreducible snarks; deterministic, so the seed is unused."""
    del seed
    out = [Input(f"chain:{k}", gen_chain_family(k)) for k in (1, 2, 3, 4)]
    out += [Input(f"p3ring:{c}", gen_p3_ring(c)) for c in (4, 6, 8)]
    return out


# -- reducible -------------------------------------------------------------------


def _next_ids(edges: dict[int, tuple[int, int]]) -> tuple[int, int]:
    return max(x for uv in edges.values() for x in uv) + 1, max(edges) + 1


def _reattach(edges: dict[int, tuple[int, int]], v: int, new_ends: list[int]) -> None:
    """Move the ends at ``v`` of its three edges (in edge-id order) to ``new_ends``."""
    incident = sorted(e for e, uv in edges.items() if v in uv)
    for e, end in zip(incident, new_ends, strict=True):
        a, b = edges[e]
        edges[e] = (end, b if a == v else a)


def _expand_triangle(edges: dict[int, tuple[int, int]], v: int) -> None:
    nv, ne = _next_ids(edges)
    t = [nv, nv + 1, nv + 2]
    _reattach(edges, v, t)
    for i in range(3):
        edges[ne + i] = (t[i], t[(i + 1) % 3])


def _replace_by_heawood(edges: dict[int, tuple[int, int]], v: int) -> None:
    """Heawood minus a vertex is a colourable 3-pole of girth 6; by the parity
    lemma its three dangling edges get three distinct colours, so the graph
    stays uncolourable."""
    nv, ne = _next_ids(edges)
    for u, w in sorted(_HEAWOOD.edges()):
        if 0 not in (u, w):
            edges[ne] = (nv + u, nv + w)
            ne += 1
    _reattach(edges, v, [nv + s for s in sorted(_HEAWOOD.neighbors(0))])


def _splice_moebius_kantor(edges: dict[int, tuple[int, int]], e: int) -> None:
    """Moebius-Kantor minus the edge (0, 1) is a colourable 2-pole; both of
    its dangling edges get the same colour, so the graph stays uncolourable."""
    nv, ne = _next_ids(edges)
    u, w = edges.pop(e)
    for a, b in sorted(_MOEBIUS_KANTOR.edges()):
        if (a, b) != (0, 1):
            edges[ne] = (nv + a, nv + b)
            ne += 1
    edges[ne] = (u, nv + 0)
    edges[ne + 1] = (nv + 1, w)


def _base_graph(name: str) -> CubicGraph:
    return gen_petersen() if name == "petersen" else gen_chain_family(int(name.partition(":")[2]))


def reducible(seed: int) -> list[Input]:
    """Snarks that do reduce: each base gets every recipe, applied in a
    seed-chosen order at seed-chosen vertices and edges of the base.  No
    gadget goes inside another, so every seed gets the same number of
    reduction steps and much the same amount of work."""
    out = []
    for base, placements in REDUCIBLE_BASES.items():
        g = _base_graph(base)
        for recipe in REDUCIBLE_RECIPES:
            for j in range(placements):
                rng = random.Random(f"reducible:{seed}:{base}:{recipe}:{j}")
                kinds = list(recipe)
                rng.shuffle(kinds)
                edges = dict(g.edge_items())
                free = set(g.vertices)  # base vertices not yet replaced
                for kind in kinds:
                    if kind == "M":
                        base_edges = [e for e in g.edge_ids if e in edges]
                        _splice_moebius_kantor(edges, rng.choice(base_edges))
                        continue
                    v = rng.choice(sorted(free))
                    free.discard(v)
                    (_expand_triangle if kind == "T" else _replace_by_heawood)(edges, v)
                out.append(Input(f"{base}+{recipe}#{j}", CubicGraph(edges)))
    return out


# -- p2ring ----------------------------------------------------------------------


def p2_ring_graph(k: int) -> CubicGraph:
    """A ring of k P2 blocks.  Block i is Petersen minus the edge (0, 1) with
    0 and 1 joined by a 2-path x-y; y is linked to the next block's x."""
    edges = []
    for i in range(k):
        off = 12 * i
        x, y = off + 10, off + 11
        edges += [(u + off, v + off) for u, v in PETERSEN_EDGES if (u, v) != (0, 1)]
        edges += [(off, x), (x, y), (y, off + 1), (y, 12 * ((i + 1) % k) + 10)]
    return CubicGraph(edges)


def p2ring(seed: int) -> list[Input]:
    """P2 rings in the fixed labelling of ``p2_ring_graph``; the seed is unused."""
    del seed
    return [Input(f"p2ring:{k}#{j}", p2_ring_graph(k)) for j, k in enumerate(P2RING_SIZES)]


# -- census14 --------------------------------------------------------------------


def census14(seed: int) -> list[tuple[int, CubicGraph | Exception]]:
    """The committed n <= 14 census as ``batch_run`` rows; the seed is unused."""
    del seed
    with open(CENSUS14, encoding="ascii") as fh:
        return list(load_graphs(fh))


# Workloads whose inputs depend on the seed; the others ignore it.
SEEDED = ("reducible",)

GENERATORS = {
    "snarks": snarks,
    "reducible": reducible,
    "p2ring": p2ring,
    "census14": census14,
}


# -- validation ------------------------------------------------------------------


class InvalidWorkload(RuntimeError):
    """A generated input lacks the property its workload is meant to exercise."""


def validate(workload: str, inputs) -> None:
    """Check every input before timing: cubic (by construction) and
    bridgeless; reducible inputs are uncolourable and actually reduce; each
    P2 ring of k blocks holds k P2 occurrences."""
    if workload == "census14":
        if any(isinstance(g, Exception) for _, g in inputs):
            raise InvalidWorkload("census14: a row failed to parse")
        return
    if len({inp.name for inp in inputs}) != len(inputs):
        raise InvalidWorkload(f"{workload}: input names are not unique")
    for inp in inputs:
        g = inp.graph
        if bridges(g):
            raise InvalidWorkload(f"{inp.name}: has a bridge")
        if workload == "reducible":
            if three_edge_color(g) is not UNCOLORABLE:
                raise InvalidWorkload(f"{inp.name}: 3-edge-colourable")
            if not full_reduce(g).steps:
                raise InvalidWorkload(f"{inp.name}: full_reduce applied no step")
        if workload == "p2ring":
            k = int(inp.name.split(":")[1].split("#")[0])
            found = len(find_occurrences(g, "P2"))
            if found != k:
                raise InvalidWorkload(f"{inp.name}: {found} P2 occurrences, expected {k}")
