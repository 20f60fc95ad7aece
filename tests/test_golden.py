"""Golden certificates: the exact output of both solvers on fixed inputs.

Each digest is the benchmark's ``certificate_digest``: the first 16 hex
digits of the sha256 of ``{"certificate": cert.to_json(), "factor":
sorted(edge_ids)}`` dumped with sorted keys and compact separators.  The
inputs reach every reachable routing branch: an input that is Petersen, a
colourable input, a reduction that ends in Petersen, a generic reduced graph
(tight for the 5-circuit bound), P3a weights, and the P2 tie-break with the
22-vertex disjointness exception.  A refactor of the solvers must leave every
digest unchanged.

The reduction-trace digests pin ``full_reduce`` the same way: the reduced
graph, the terminal flag, the trace summary, and every step's new edge ids,
lift cases and side colouring.  The colouring digest pins
``three_edge_color`` on the n <= 14 census and three snarks; most colourable
census graphs colour through the 2-edge-cut split.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import networkx as nx
import pytest

from pentafactor.coloring import UNCOLORABLE, three_edge_color
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import parse_graph, serialize_graph
from pentafactor.graphs import CubicGraph
from pentafactor.reductions import full_reduce
from pentafactor.solver import nontrivial_certificate, solve_5cyc, solve_oddness

from tests.hosts import REDUCTION_FIXTURES, exceptional_22_host, two_cut_fixture, two_cycle_fixture

GOLDEN = {
    # input: (solve_5cyc digest, solve_oddness digest)
    "petersen": ("2dbee9e7a40bc05e", "a93d17406b8c09ab"),
    "k33": ("db1eaac68f637e31", "e83dd4808ec0417f"),
    "two_cycle": ("5a5a7137d70b24b1", "3342e3e30ba00941"),
    "chain:1": ("600e161521b0fb75", "74ef4b30d6441dbb"),
    "p3ring:4": ("7c3607a27105a5e7", "aeb4fb8768851af3"),
    "exceptional_22": ("954bee333b02b49f", "09feaa60a8ff8eb6"),
}

INPUTS = {
    "petersen": gen_petersen,
    "k33": lambda: CubicGraph([(a, b) for a in range(3) for b in range(3, 6)]),
    "two_cycle": two_cycle_fixture,
    "chain:1": lambda: gen_chain_family(1),
    "p3ring:4": lambda: gen_p3_ring(4),
    "exceptional_22": exceptional_22_host,
}


def certificate_digest(factor, cert) -> str:
    payload = {"certificate": cert.to_json(), "factor": sorted(factor.edge_ids)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificates(name):
    g = INPUTS[name]()
    five, odd = GOLDEN[name]
    assert certificate_digest(*solve_5cyc(g)) == five
    assert certificate_digest(*solve_oddness(g)) == odd


def test_golden_nontrivial_certificate():
    # The dodecahedron is cyclically 5-edge-connected with girth 5.
    g = CubicGraph(sorted(nx.dodecahedral_graph().edges()))
    assert certificate_digest(*nontrivial_certificate(g)) == "2612db35ec5b6e59"


def _expand_triangles(g: CubicGraph, vertices) -> CubicGraph:
    """g with each listed vertex replaced by a triangle (inverse Triangle steps)."""
    edges = dict(g.edge_items())
    nv, ne = max(g.vertices) + 1, g.max_edge_id() + 1
    for v in vertices:
        tri = (nv, nv + 1, nv + 2)
        for t, e in zip(tri, g.incident(v)):
            a, b = edges[e]
            edges[e] = (t, b) if a == v else (a, t)
        edges.update({ne: (tri[0], tri[1]), ne + 1: (tri[1], tri[2]), ne + 2: (tri[2], tri[0])})
        nv, ne = nv + 3, ne + 3
    return CubicGraph(edges)


TRACE_INPUTS = {
    **dict(REDUCTION_FIXTURES),
    "chain:1": lambda: gen_chain_family(1),
    "p3ring:4": lambda: gen_p3_ring(4),
    # Two triangles, then the 2-cut: a multi-step trace.
    "TwoCut+triangles": lambda: _expand_triangles(two_cut_fixture(), (5, 25)),
}


def trace_digest(trace) -> str:
    steps = []
    for s in trace.steps:
        coloring = None if s.side_coloring is None else sorted(s.side_coloring.assignment.items())
        steps.append({
            "new_ids": sorted(s.new_ids),
            "cases": sorted([sorted(k), list(v)] for k, v in s.cases.items()),
            "side_coloring": coloring,
        })
    payload = {
        "reduced": serialize_graph(trace.reduced),
        "reduced_edges": sorted(trace.reduced.edge_items()),
        "terminal": trace.terminal_flag,
        "summary": trace.summary(),
        "steps": steps,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN_TRACES = {
    "FourCycle-both": "18e82f4ddcbdc8c8",
    "FourCycle-disjoint": "215fa9bd64d0335c",
    "FourCycle-w1w3": "a08a8df5ea2f8eef",
    "ThreeCut": "914ebef54cccd373",
    "Triangle": "15e34f43e9dd6c7b",
    "TwoCut": "de729c056a79cfe3",
    "TwoCut+triangles": "dab287b2af1a2a2f",
    "TwoCycle": "e8da9b157ccea4a0",
    "chain:1": "12458df50614ca28",
    "p3ring:4": "d2f6b00f5bb03818",
}


@pytest.mark.parametrize("name", sorted(TRACE_INPUTS))
def test_golden_reduction_traces(name):
    assert trace_digest(full_reduce(TRACE_INPUTS[name]())) == GOLDEN_TRACES[name]


def test_golden_colourings():
    path = Path(__file__).parent / "data" / "cubic_simple_connected_14.g6"
    graphs = [parse_graph(line) for line in path.read_text().splitlines() if line]
    graphs += [gen_chain_family(1), gen_chain_family(2), gen_p3_ring(4)]
    rows = []
    for g in graphs:
        col = three_edge_color(g)
        rows.append(None if col is UNCOLORABLE else sorted(col.assignment.items()))
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a1470f44dbaf6bbf"
