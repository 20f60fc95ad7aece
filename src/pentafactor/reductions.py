"""Girth and small-cut reductions with invertible traces for 2-factor lift-back.

Every step records a lift table: keyed by the subset of the step's new edges
that a 2-factor of the reduced graph uses, it lists the original edges that
replace them.  Lifting never introduces 3-circuits, never increases the
5-circuit count and keeps the odd-circuit count (checked per step; a failure
raises CertificationError).

Step order inside full_reduce mirrors the proofs' dependency order: 2-cycles,
triangles, 4-circuits, then 2-cuts, then independent non-trivial 3-cuts,
looping to a fixpoint.  Each step computes what it needs once: a girth step
enumerates the circuits of length <= 4 in one pass, and a cut step finds the
2- and 3-cuts in one ``small_cuts`` scan, colours candidate sides smallest
first, stops at the first colourable one, and builds its reduction from that
side's completion and colouring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .coloring import EdgeColoring, UNCOLORABLE, three_edge_color
from .connectivity import bridges, side_completion, small_cuts
from .errors import BridgeCreated, CertificationError, HasBridge, InvalidFactor, Sentinel
from .factors import TwoFactor, two_factor_from_edges
from .graphs import (
    Circuit,
    CubicGraph,
    enumerate_circuits_up_to,
    girth,
    is_connected,
    is_petersen,
)


NO_SHORT_CIRCUIT = Sentinel("NO_SHORT_CIRCUIT")
NO_COLORABLE_CUT = Sentinel("NO_COLORABLE_CUT")

TERMINAL_GENERIC = "Generic"
TERMINAL_PETERSEN = "Petersen"


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    pre: CubicGraph
    post: CubicGraph
    new_ids: frozenset[int]
    # Lift table: subset of new_ids used by the reduced factor -> original
    # edge ids that replace them.
    cases: dict[frozenset[int], tuple[int, ...]]
    side_coloring: EdgeColoring | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def lift_edges(self, edges: set[int]) -> set[int]:
        trigger = frozenset(edges & self.new_ids)
        if trigger not in self.cases:
            raise InvalidFactor(f"factor uses new edges {sorted(trigger)} in no lift case")
        return (edges - trigger) | set(self.cases[trigger])


@dataclass(frozen=True)
class ReductionTrace:
    original: CubicGraph
    reduced: CubicGraph
    steps: tuple[ReductionStep, ...]
    terminal_flag: str

    def summary(self) -> list[dict[str, Any]]:
        return [
            {"kind": s.kind, "n_before": s.pre.n, "n_after": s.post.n, **s.detail}
            for s in self.steps
        ]


def _derive(g: CubicGraph, drop_vertices: set[int],
            add_edges: dict[int, tuple[int, int]]) -> CubicGraph:
    keep = [v for v in g.vertices if v not in drop_vertices]
    edges = {e: g.endpoints(e) for e in g.induced_edge_ids(keep)}
    edges.update(add_edges)
    return CubicGraph(edges, vertices=keep)


# -- girth reduction -----------------------------------------------------------


def reduce_girth_step(g: CubicGraph) -> ReductionStep | Sentinel:
    """Eliminate one 2-cycle, triangle, or 4-circuit; NO_SHORT_CIRCUIT when no
    reducible short circuit exists (girth >= 5, or the graph is too small for
    the construction, e.g. the theta multigraph).

    Each builder yields its candidate steps in order of preference; the first
    whose reduced graph is connected and bridgeless is taken.  A circuit with
    candidates but no such step raises BridgeCreated.
    """
    if bridges(g):
        raise HasBridge("girth reduction requires a bridgeless graph")
    for c in enumerate_circuits_up_to(g, 4):  # sorted by length
        step = None
        for step in _SHORT_CIRCUIT_STEPS[c.length](g, c):
            if is_connected(step.post) and not bridges(step.post):
                return step
        if step is not None:
            raise BridgeCreated(f"{step.kind} disconnected the graph or produced a bridge")
    return NO_SHORT_CIRCUIT


def _two_cycle_step(g: CubicGraph, c: Circuit) -> Iterator[ReductionStep]:
    u, v = c.vertices
    p1, p2 = sorted(c.edge_ids)
    eu = next(e for e in g.incident(u) if e not in (p1, p2))
    ev = next(e for e in g.incident(v) if e not in (p1, p2))
    u2, v2 = g.other_end(eu, u), g.other_end(ev, v)
    if u2 in (u, v) or v2 in (u, v):
        return  # triple edge; component is a theta, nothing to do
    if u2 == v2:
        raise BridgeCreated("2-cycle removal would create a loop (bridge upstream)")
    e_new = g.max_edge_id() + 1
    post = _derive(g, {u, v}, {e_new: (u2, v2)})
    cases = {
        frozenset((e_new,)): (eu, p1, ev),
        frozenset(): (p1, p2),
    }
    yield ReductionStep(
        kind="TwoCycle", pre=g, post=post, new_ids=frozenset((e_new,)),
        cases=cases, detail={"removed_vertices": [u, v]},
    )


def _triangle_step(g: CubicGraph, c: Circuit) -> Iterator[ReductionStep]:
    u, v, w = c.vertices
    e_uv = g.edges_between(u, v)[0]
    e_vw = g.edges_between(v, w)[0]
    e_uw = g.edges_between(u, w)[0]
    tri = {e_uv, e_vw, e_uw}
    out = {}
    for x in (u, v, w):
        o = next(e for e in g.incident(x) if e not in tri)
        t = g.other_end(o, x)
        if t in (u, v, w):
            return  # doubled triangle edge; 2-cycle pass handles it first
        out[x] = (o, t)
    z = max(g.vertices) + 1
    base = g.max_edge_id() + 1
    new = {x: base + i for i, x in enumerate((u, v, w))}
    post = _derive(g, {u, v, w}, {new[x]: (z, out[x][1]) for x in (u, v, w)})
    cases = {
        frozenset((new[u], new[v])): (out[u][0], e_uw, e_vw, out[v][0]),
        frozenset((new[u], new[w])): (out[u][0], e_uv, e_vw, out[w][0]),
        frozenset((new[v], new[w])): (out[v][0], e_uv, e_uw, out[w][0]),
    }
    yield ReductionStep(
        kind="Triangle", pre=g, post=post, new_ids=frozenset(new.values()),
        cases=cases, detail={"contracted": [u, v, w], "new_vertex": z},
    )


def _four_cycle_step(g: CubicGraph, c: Circuit) -> Iterator[ReductionStep]:
    v1, v2, v3, v4 = c.vertices
    e12, e23, e34, e41 = c.edge_ids
    cyc_edges = set(c.edge_ids)
    o: dict[int, tuple[int, int]] = {}
    for x in (v1, v2, v3, v4):
        cand = [e for e in g.incident(x) if e not in cyc_edges]
        if len(cand) != 1:
            return  # chorded or doubled 4-circuit; earlier passes own it
        o[x] = (cand[0], g.other_end(cand[0], x))
    w1, w2, w3, w4 = (o[x][1] for x in (v1, v2, v3, v4))
    if {w1, w2, w3, w4} & {v1, v2, v3, v4}:
        return
    if w1 == w3 and w2 == w4:
        yield from _four_cycle_both(g, c, o)
    elif w1 == w3 or w2 == w4:
        yield from _four_cycle_one_pair(g, c, o)
    elif len({w1, w2, w3, w4}) == 4:
        # Otherwise w1 == w2 (or a similar adjacent coincidence) implies a
        # triangle.
        yield from _four_cycle_disjoint(g, c, o)


def _four_cycle_both(g, c: Circuit, o) -> Iterator[ReductionStep]:
    v1, v2, v3, v4 = c.vertices
    e12, e23, e34, e41 = c.edge_ids
    w1 = o[v1][1]
    w2 = o[v2][1]
    deleted = {v1, v2, v3, v4, w1, w2}
    t1 = next(e for e in g.incident(w1) if e not in (o[v1][0], o[v3][0]))
    t2 = next(e for e in g.incident(w2) if e not in (o[v2][0], o[v4][0]))
    a, b = g.other_end(t1, w1), g.other_end(t2, w2)
    if a in deleted or b in deleted or a == b:
        return  # the six vertices close up (K3,3-like); not reducible
    e_new = g.max_edge_id() + 1
    post = _derive(g, deleted, {e_new: (a, b)})
    cases = {
        frozenset((e_new,)): (t1, o[v1][0], e12, e23, e34, o[v4][0], t2),
        frozenset(): (o[v1][0], e12, o[v2][0], o[v4][0], e34, o[v3][0]),
    }
    yield ReductionStep(
        kind="FourCycle-both", pre=g, post=post, new_ids=frozenset((e_new,)),
        cases=cases, detail={"removed_vertices": sorted(deleted)},
    )


def _four_cycle_one_pair(g, c: Circuit, o) -> Iterator[ReductionStep]:
    vs = list(c.vertices)
    es = list(c.edge_ids)
    if o[vs[0]][1] != o[vs[2]][1]:
        # Rotate so the identical pair sits on positions 1 and 3.
        vs = vs[1:] + vs[:1]
        es = es[1:] + es[:1]
    v1, v2, v3, v4 = vs
    e12, e23, e34, e41 = es
    w1 = o[v1][1]
    if o[v3][1] != w1:
        raise CertificationError("4-circuit vertices v1 and v3 have different outside neighbours")
    t = next(e for e in g.incident(w1) if e not in (o[v1][0], o[v3][0]))
    tv = g.other_end(t, w1)
    if tv in (v1, v2, v3, v4):
        raise CertificationError("triangle should have been reduced first")
    z = max(g.vertices) + 1
    base = g.max_edge_id() + 1
    n_w2, n_w4, n_t = base, base + 1, base + 2
    post = _derive(
        g, {v1, v2, v3, v4, w1},
        {n_w2: (z, o[v2][1]), n_w4: (z, o[v4][1]), n_t: (z, tv)},
    )
    cases = {
        frozenset((n_w2, n_w4)): (o[v2][0], e12, o[v1][0], o[v3][0], e34, o[v4][0]),
        frozenset((n_w2, n_t)): (t, o[v1][0], e41, e34, e23, o[v2][0]),
        frozenset((n_w4, n_t)): (t, o[v1][0], e12, e23, e34, o[v4][0]),
    }
    yield ReductionStep(
        kind="FourCycle-w1w3", pre=g, post=post,
        new_ids=frozenset((n_w2, n_w4, n_t)), cases=cases,
        detail={"contracted": sorted({v1, v2, v3, v4, w1}), "new_vertex": z},
    )


def _four_cycle_disjoint(g, c: Circuit, o) -> Iterator[ReductionStep]:
    """Both reconnections of the four outside neighbours, w1w2|w3w4 first."""
    v1, v2, v3, v4 = c.vertices
    e12, e23, e34, e41 = c.edge_ids
    w = {x: o[x][1] for x in c.vertices}
    base = g.max_edge_id() + 1
    ea, eb = base, base + 1
    yield ReductionStep(
        kind="FourCycle-disjoint", pre=g,
        post=_derive(g, set(c.vertices), {ea: (w[v1], w[v2]), eb: (w[v3], w[v4])}),
        new_ids=frozenset((ea, eb)),
        cases={
            frozenset((ea, eb)): (o[v1][0], e12, o[v2][0], o[v3][0], e34, o[v4][0]),
            frozenset((ea,)): (o[v1][0], e41, e34, e23, o[v2][0]),
            frozenset((eb,)): (o[v3][0], e23, e12, e41, o[v4][0]),
            frozenset(): (e12, e23, e34, e41),
        },
        detail={"removed_vertices": list(c.vertices), "pairing": "w1w2|w3w4"},
    )
    yield ReductionStep(
        kind="FourCycle-disjoint", pre=g,
        post=_derive(g, set(c.vertices), {ea: (w[v1], w[v4]), eb: (w[v2], w[v3])}),
        new_ids=frozenset((ea, eb)),
        cases={
            frozenset((ea, eb)): (o[v1][0], e41, o[v4][0], o[v2][0], e23, o[v3][0]),
            frozenset((ea,)): (o[v1][0], e12, e23, e34, o[v4][0]),
            frozenset((eb,)): (o[v2][0], e12, e41, e34, o[v3][0]),
            frozenset(): (e12, e23, e34, e41),
        },
        detail={"removed_vertices": list(c.vertices), "pairing": "w1w4|w2w3"},
    )


_SHORT_CIRCUIT_STEPS = {2: _two_cycle_step, 3: _triangle_step, 4: _four_cycle_step}


# -- cut reduction ---------------------------------------------------------------


def reduce_cut_step(g: CubicGraph) -> ReductionStep | Sentinel:
    """Detach the smallest colorable side of a 2-edge-cut or, when no 2-cut
    side is colorable and g has girth >= 5, of an independent non-trivial
    3-edge-cut (the construction needs six distinct endpoints).

    One ``small_cuts`` scan serves both sizes.  Sides are coloured smallest
    first (ties by sorted vertex list) until one is colorable.  Returns
    NO_COLORABLE_CUT at the fixpoint where every candidate cut separates two
    uncolorable sides.
    """
    cuts = small_cuts(g, 3)
    all_vs = frozenset(g.vertices)
    for size, build in ((2, _two_cut_step), (3, _three_cut_step)):
        if size == 3 and girth(g) < 5:
            break
        sides = [(side, tuple(sorted(cut.edge_ids)))
                 for cut in cuts if cut.size == size and cut.independent
                 for side in (cut.side_small, all_vs - cut.side_small)]
        # A side fixes its cut, so the key is unique.
        sides.sort(key=lambda s: (len(s[0]), sorted(s[0])))
        for side, ids in sides:
            completion = side_completion(g, side, ids)
            col = three_edge_color(completion[0])
            if col is not UNCOLORABLE:
                return build(g, side, ids, completion, col)
    return NO_COLORABLE_CUT


def _two_cut_step(g: CubicGraph, side: frozenset[int], ids: tuple[int, int],
                  completion, col: EdgeColoring) -> ReductionStep:
    comp, (v1, w1), (v2, w2), (virt,) = completion
    if g.has_edge(v1, w1):
        raise CertificationError("side endpoints adjacent despite minimal cut choice")
    e2_new = virt + 1
    post = _derive(g, set(side), {e2_new: (v2, w2)})
    alpha = col.color(virt)
    beta = min(c for c in (0, 1, 2) if c != alpha)
    side_ids = [e for e in comp.edge_ids if e != virt]
    even_factor = tuple(e for e in side_ids if col.color(e) != alpha)
    through = tuple(ids) + tuple(
        e for e in side_ids if col.color(e) in (alpha, beta)
    )
    cases = {
        frozenset(): even_factor,
        frozenset((e2_new,)): through,
    }
    return ReductionStep(
        kind="TwoCut", pre=g, post=post, new_ids=frozenset((e2_new,)),
        cases=cases, side_coloring=col,
        detail={"cut_edges": list(ids), "side_size": len(side)},
    )


def _three_cut_step(g: CubicGraph, side: frozenset[int], ids: tuple[int, int, int],
                    completion, col: EdgeColoring) -> ReductionStep:
    comp, inner, outer, hub_edges = completion
    if any(g.has_edge(inner[i], inner[j]) for i, j in ((0, 1), (0, 2), (1, 2))):
        raise CertificationError("3-cut side endpoints adjacent despite girth/cut choice")
    y2 = max(g.vertices) + 2  # one past the completion's hub
    new_base = hub_edges[-1] + 1
    new_by_cut = {ids[i]: new_base + i for i in range(3)}
    post = _derive(
        g, set(side),
        {new_base + i: (y2, outer[i]) for i in range(3)},
    )
    side_ids = [e for e in comp.edge_ids if e not in hub_edges]
    cases = {}
    for unused in range(3):
        alpha = col.color(hub_edges[unused])
        used = [i for i in range(3) if i != unused]
        add = tuple(ids[i] for i in used) + tuple(
            e for e in side_ids if col.color(e) != alpha
        )
        cases[frozenset(new_by_cut[ids[i]] for i in used)] = add
    return ReductionStep(
        kind="ThreeCut", pre=g, post=post,
        new_ids=frozenset(new_by_cut.values()), cases=cases, side_coloring=col,
        detail={"cut_edges": list(ids), "side_size": len(side)},
    )


# -- pipeline ----------------------------------------------------------------------


def full_reduce(g: CubicGraph) -> ReductionTrace:
    """Reduce to a fixpoint: girth >= 5 and no colorable small-cut sides.

    Precondition: g is bridgeless and not 3-edge-colorable (colorable inputs
    bypass reduction in the solvers).  Every step turns a colouring of its
    reduced graph into one of its input, so the fixpoint is uncolorable too.
    Terminal flags: Petersen when the fixpoint is the Petersen graph, Generic
    otherwise.
    """
    if bridges(g):
        raise HasBridge("full_reduce requires a bridgeless graph")
    steps: list[ReductionStep] = []
    cur = g
    while True:
        step = reduce_girth_step(cur) or reduce_cut_step(cur)
        if not step:
            break
        if step.post.n >= cur.n:
            raise CertificationError(f"{step.kind} step did not shrink the graph")
        steps.append(step)
        cur = step.post
    flag = TERMINAL_PETERSEN if is_petersen(cur) else TERMINAL_GENERIC
    return ReductionTrace(original=g, reduced=cur, steps=tuple(steps), terminal_flag=flag)


def lift_two_factor(trace: ReductionTrace, factor: TwoFactor) -> TwoFactor:
    """Map a 2-factor of the reduced graph to one of the original graph.

    The lifted factor has no 3-circuits, at most as many 5-circuits and as
    many odd circuits; all three are checked per step and a failure raises
    CertificationError.
    """
    current = two_factor_from_edges(trace.reduced, factor.edge_ids)
    edges = set(current.edge_ids)
    count5, odd = current.count5, current.odd_count
    out = current
    for step in reversed(trace.steps):
        edges = step.lift_edges(edges)
        out = two_factor_from_edges(step.pre, frozenset(edges))
        if out.count3 != 0:
            raise CertificationError(f"{step.kind} lift created a triangle")
        if out.count5 > count5:
            raise CertificationError(f"{step.kind} lift increased the 5-count")
        if out.odd_count != odd:
            raise CertificationError(f"{step.kind} lift changed the odd count")
        count5 = out.count5
    return out
