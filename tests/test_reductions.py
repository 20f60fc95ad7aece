"""Reduction steps, fixpoint properties, and exhaustive lift-back safety."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pentafactor.coloring import UNCOLORABLE, three_edge_color
from pentafactor.connectivity import bridges, side_completion, small_cuts
from pentafactor.errors import CertificationError, HasBridge
from pentafactor.factors import complement_two_factor, two_factor_from_edges
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import parse_graph
from pentafactor.graphs import CubicGraph, PETERSEN_EDGES, girth, is_connected, is_petersen
from pentafactor.matching import enumerate_perfect_matchings
from pentafactor import reductions
from pentafactor.reductions import (
    NO_COLORABLE_CUT,
    NO_SHORT_CIRCUIT,
    ReductionStep,
    ReductionTrace,
    full_reduce,
    lift_two_factor,
    reduce_cut_step,
    reduce_girth_step,
)

from tests.hosts import (
    REDUCTION_FIXTURES as ALL_FIXTURES,
    exceptional_22_host,
    three_cut_fixture,
    triangle_fixture,
    two_cut_fixture,
    two_cycle_fixture,
)
from tests.test_golden import TRACE_INPUTS


def test_girth_step_examples(petersen, k4):
    step = reduce_girth_step(k4)
    assert step.kind == "Triangle"
    assert step.post.n == 2 and not step.post.is_simple()  # theta multigraph
    assert reduce_girth_step(petersen) is NO_SHORT_CIRCUIT


def test_two_cycle_step_shape():
    g = two_cycle_fixture()
    step = reduce_girth_step(g)
    assert step.kind == "TwoCycle"
    assert step.post.n == g.n - 2
    assert is_petersen(step.post)


def test_girth_step_requires_bridgeless():
    subdiv_k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    bridged = CubicGraph(subdiv_k4 + [(u + 5, v + 5) for u, v in subdiv_k4] + [(4, 9)])
    with pytest.raises(HasBridge):
        reduce_girth_step(bridged)
    with pytest.raises(HasBridge):  # raised by its small_cuts scan
        reduce_cut_step(bridged)


@pytest.mark.parametrize("kind,builder", ALL_FIXTURES)
def test_first_step_kind(kind, builder):
    g = builder()
    if kind in ("TwoCut", "ThreeCut"):
        step = reduce_cut_step(g)
        assert step is not NO_COLORABLE_CUT
    else:
        step = reduce_girth_step(g)
        assert step is not NO_SHORT_CIRCUIT
    assert step.kind == kind


@pytest.mark.parametrize("kind,builder", ALL_FIXTURES)
def test_fixture_reduces_to_petersen(kind, builder):
    trace = full_reduce(builder())
    assert trace.terminal_flag == "Petersen"
    assert is_petersen(trace.reduced)
    assert any(s.kind == kind for s in trace.steps)


@pytest.mark.parametrize("kind,builder", ALL_FIXTURES)
def test_lift_back_safety_exhaustive(kind, builder):
    # Acceptance-style: every 2-factor of the reduced graph lifts without
    # triangles and without gaining 5-circuits.
    trace = full_reduce(builder())
    assert trace.reduced.n <= 14
    for m in enumerate_perfect_matchings(trace.reduced):
        f = complement_two_factor(trace.reduced, m)
        lifted = lift_two_factor(trace, f)
        assert lifted.count3 == 0
        assert lifted.count5 <= f.count5
        assert lifted.odd_count == f.odd_count
        assert lifted.n == trace.original.n


def test_empty_trace_lift_is_identity(petersen):
    trace = full_reduce(petersen)
    assert trace.steps == () and trace.terminal_flag == "Petersen"
    for m in enumerate_perfect_matchings(petersen):
        f = complement_two_factor(petersen, m)
        assert lift_two_factor(trace, f).edge_ids == f.edge_ids


def bad_lift_trace(kind: str):
    """A one-step trace whose only lift case breaks a lift-back claim, and
    the reduced factor that triggers it.

    "triangle": the step maps the prism's two-triangle 2-factor to itself.
    "five": the step maps a 4-circuit of K4 (edge ids 100..105) onto the
    two 5-circuits of Petersen.
    "odd": the step maps the same 4-circuit onto the outer and inner
    7-circuits of the generalized Petersen graph GP(7, 2), a factor with no
    triangle and no 5-circuit but two odd circuits.
    """
    if kind == "triangle":
        pre = post = CubicGraph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
        used, new_ids, cases = {0, 1, 2, 3, 4, 5}, frozenset(), {frozenset(): ()}
    else:
        k4 = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        post = CubicGraph({100 + i: uv for i, uv in enumerate(k4)})
        used, new_ids = {100, 101, 102, 103}, frozenset(post.edge_ids)
        if kind == "five":
            pre = CubicGraph(PETERSEN_EDGES)
            cases = {frozenset(used): (0, 1, 2, 3, 4, 10, 11, 12, 13, 14)}
        else:
            # Outer circuit ids 0..6, spokes 7..13, inner circuit ids 14..20.
            pre = CubicGraph([(i, (i + 1) % 7) for i in range(7)]
                             + [(i, i + 7) for i in range(7)]
                             + [(i + 7, (i + 2) % 7 + 7) for i in range(7)])
            cases = {frozenset(used): tuple(range(7)) + tuple(range(14, 21))}
    step = ReductionStep(kind="Forged", pre=pre, post=post,
                         new_ids=new_ids, cases=cases)
    trace = ReductionTrace(original=pre, reduced=post, steps=(step,),
                           terminal_flag="forged")
    return trace, two_factor_from_edges(post, frozenset(used))


@pytest.mark.parametrize("kind, message", [
    ("triangle", "lift created a triangle"),
    ("five", "lift increased the 5-count"),
    ("odd", "lift changed the odd count"),
])
def test_bad_lift_case_raises_typed_error(kind, message):
    trace, f = bad_lift_trace(kind)
    with pytest.raises(CertificationError, match=message):
        lift_two_factor(trace, f)


def test_bad_lift_case_raises_under_optimize():
    # The lift-back checks are not asserts, so python -O keeps them.
    root = Path(__file__).resolve().parent.parent
    code = (
        "from pentafactor.errors import CertificationError\n"
        "from pentafactor.reductions import lift_two_factor\n"
        "from tests.test_reductions import bad_lift_trace\n"
        "for kind in ('triangle', 'five', 'odd'):\n"
        "    try:\n"
        "        lift_two_factor(*bad_lift_trace(kind))\n"
        "    except CertificationError:\n"
        "        continue\n"
        "    raise SystemExit(kind + ': no CertificationError')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_triangle_lift_lengths():
    # Contracted-vertex circuits grow by exactly two (the path through the
    # triangle), never reaching length 3 or 5.
    g = triangle_fixture()
    trace = full_reduce(g)
    (step,) = [s for s in trace.steps if s.kind == "Triangle"]
    for m in enumerate_perfect_matchings(step.post):
        f = complement_two_factor(step.post, m)
        lifted_edges = step.lift_edges(set(f.edge_ids))
        from pentafactor.factors import two_factor_from_edges

        lifted = two_factor_from_edges(step.pre, frozenset(lifted_edges))
        sizes_before = sorted(c.length for c in f.circuits)
        sizes_after = sorted(c.length for c in lifted.circuits)
        assert sum(sizes_after) == sum(sizes_before) + 2
        assert 3 not in sizes_after and 5 not in sizes_after or f.count5 >= lifted.count5


def test_chain_family_is_reduction_fixpoint():
    g = gen_chain_family(1)
    trace = full_reduce(g)
    assert trace.steps == ()
    assert trace.reduced.n == g.n
    assert trace.terminal_flag == "Generic"


def test_cut_step_examples():
    g = gen_chain_family(1)
    # Every 2-cut side contains a P1 block, so both sides are uncolorable,
    # and so is every side of an independent non-trivial 3-cut.
    assert reduce_cut_step(g) is NO_COLORABLE_CUT

    fix = two_cut_fixture()
    step = reduce_cut_step(fix)
    assert step.kind == "TwoCut"
    assert step.post.n == fix.n - 16  # the 16-vertex gadget side is detached
    assert is_petersen(step.post)


@pytest.mark.parametrize("builder", [two_cut_fixture, three_cut_fixture])
def test_cut_step_colours_each_side_once(monkeypatch, builder):
    # Sides are coloured smallest first until one is colourable; the step is
    # built from that colouring, so the chosen side is never recoloured.
    g = builder()
    coloured = []

    def counting(h):
        coloured.append(frozenset(h.vertices) & frozenset(g.vertices))
        return three_edge_color(h)

    monkeypatch.setattr(reductions, "three_edge_color", counting)
    step = reduce_cut_step(g)
    chosen = frozenset(g.vertices) - frozenset(step.post.vertices)
    assert len(coloured) == len(set(coloured))
    assert coloured[-1] == chosen
    assert step.side_coloring.is_proper_on(_side_completion(g, chosen, step.detail["cut_edges"]))


def test_completion_rejects_shared_side_vertex(petersen):
    # Two cut edges at one side vertex mean a bridge upstream; the guard is a
    # typed error, not an assert that python -O would drop.
    e1, e2, _ = petersen.incident(0)
    with pytest.raises(CertificationError, match="share a side vertex"):
        side_completion(petersen, frozenset({0}), (e1, e2))


def _side_completion(g, side, ids):
    """Cubic completion of a cut side: join the stubs directly for 2-cuts,
    through a fresh hub vertex for 3-cuts (repeated stubs allowed)."""
    inner = []
    for e in ids:
        u, v = g.endpoints(e)
        inner.append(u if u in side else v)
    edges = {e: g.endpoints(e) for e in g.induced_edge_ids(side)}
    nid = g.max_edge_id() + 1
    if len(ids) == 2:
        edges[nid] = (inner[0], inner[1])
    else:
        hub = max(g.vertices) + 1
        for i, s in enumerate(inner):
            edges[nid + i] = (hub, s)
    return CubicGraph(edges)


@pytest.mark.parametrize("builder", [
    lambda: gen_chain_family(1),
    lambda: gen_p3_ring(4),
    exceptional_22_host,
])
def test_generic_fixpoint_postconditions(builder):
    # At the fixpoint, every cut small_cuts reports, a 2-cut or a
    # non-trivial 3-cut (independent or not), separates two uncolorable sides.
    trace = full_reduce(builder())
    reduced = trace.reduced
    assert trace.terminal_flag == "Generic"
    assert girth(reduced) >= 5
    for cut in small_cuts(reduced, 3):
        all_vs = frozenset(reduced.vertices)
        for side in (cut.side_small, all_vs - cut.side_small):
            comp = _side_completion(reduced, side, tuple(sorted(cut.edge_ids)))
            assert three_edge_color(comp) is UNCOLORABLE


@pytest.mark.parametrize("name", sorted(TRACE_INPUTS))
def test_reduction_steps_keep_uncolorable(name):
    # Every step turns a colouring of post into one of pre: TwoCycle and
    # Triangle recolour the gadget, the 4-circuit steps see their pendant
    # colours as a,a,b,b or a,b,c, and the cut steps permute the colourable
    # side's colours onto the cut edges.  So an uncolorable input stays
    # uncolorable through the whole trace.
    for step in full_reduce(TRACE_INPUTS[name]()).steps:
        assert three_edge_color(step.post) is UNCOLORABLE, step.kind


@pytest.mark.parametrize("name", sorted(TRACE_INPUTS))
def test_reduction_steps_keep_connected(name):
    # No step may split the graph: a disconnected post would let the census
    # see two components as one host.
    for step in full_reduce(TRACE_INPUTS[name]()).steps:
        assert is_connected(step.post), step.kind


def test_three_cut_step_keeps_uncolorable_side():
    fix = three_cut_fixture()
    step = reduce_cut_step(fix)
    assert step.kind == "ThreeCut"
    # The colorable Moebius-Kantor side detaches; Petersen remains.
    assert is_petersen(step.post)
    assert step.side_coloring is not None


@pytest.mark.parametrize("builder", [
    two_cut_fixture,
    three_cut_fixture,
    lambda: gen_chain_family(1),
])
def test_cut_step_scans_cuts_once(monkeypatch, builder):
    # One small_cuts call serves the 2-cut and the 3-cut candidates, whether
    # the step detaches a 2-cut side, a 3-cut side, or nothing.
    calls = []

    def counting(g, k):
        calls.append(k)
        return small_cuts(g, k)

    monkeypatch.setattr(reductions, "small_cuts", counting)
    reduce_cut_step(builder())
    assert calls == [3]
