"""Oracle, batch runner, and report determinism."""

from __future__ import annotations

import json

import pytest

from pentafactor.errors import CapExceeded
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import serialize_graph
from pentafactor.graphs import CubicGraph, PETERSEN_EDGES
from pentafactor.workbench import (
    batch_run,
    load_graphs,
    oracle_exact,
    parse_generator_spec,
)


def test_oracle_values(petersen, k4, k33):
    assert oracle_exact(petersen) == (2, 2)
    assert oracle_exact(k4) == (0, 0)
    assert oracle_exact(k33) == (0, 0)


def test_oracle_cap():
    with pytest.raises(CapExceeded):
        oracle_exact(gen_chain_family(1))  # n = 32 > 24


def test_p3_ring_probes_n_over_9():
    # The ring family probes the conjectured n/9 bound empirically.  This
    # particular two-copy wiring admits a pentagon-free 2-factor (two
    # 9-circuits), so it respects but does not attain the bound.
    g = gen_p3_ring(2)
    w5, w = oracle_exact(g)
    assert (w5, w) == (0, 2)


def test_generator_specs():
    assert [g.n for g in parse_generator_spec("petersen")] == [10]
    assert [g.n for g in parse_generator_spec("chain:1..2")] == [32, 62]
    assert [g.n for g in parse_generator_spec("p3ring:2")] == [18]
    assert len(parse_generator_spec("census:8")) == 5
    for spec in ("nonsense:3", "p3ring:5", "chain:3..1", "petersen:7"):
        with pytest.raises(ValueError):
            parse_generator_spec(spec)


def test_load_graphs_graph6_lines(petersen, k4):
    text = serialize_graph(petersen) + "\n" + serialize_graph(k4) + "\n"
    items = list(load_graphs(text.splitlines()))
    assert len(items) == 2
    assert items[0][1].n == 10 and items[1][1].n == 4


def test_load_graphs_reports_bad_lines():
    items = list(load_graphs(["not-a-graph6###"]))
    assert len(items) == 1 and isinstance(items[0][1], Exception)


def test_load_graphs_cubicmg_blocks(theta):
    text = serialize_graph(theta) + "\n" + serialize_graph(theta) + "\n"
    items = list(load_graphs(text.splitlines()))
    assert len(items) == 2
    assert all(not isinstance(item, Exception) and item.n == 2 for _, item in items)


def test_batch_chain():
    graphs = list(enumerate(parse_generator_spec("chain:1..2")))
    report = batch_run(graphs, modes=("both",))
    assert not report.has_violation
    assert [r.achieved5 for r in report.rows] == [4, 8]
    assert all(r.k_odd is not None and r.k_odd % 2 == 0 for r in report.rows)


def test_batch_flags_skipped():
    subdiv_k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    bridged = CubicGraph(subdiv_k4 + [(u + 5, v + 5) for u, v in subdiv_k4] + [(4, 9)])
    report = batch_run([(0, bridged)], modes=("five",))
    assert report.rows[0].status == "skipped"
    assert report.rows[0].reason == "has bridge"
    assert report.summary["skipped"] == 1


def test_batch_skips_disconnected(petersen):
    # Two Petersen copies: bridgeless but disconnected.  The row is skipped
    # and the batch goes on to the next one.
    two = CubicGraph([*PETERSEN_EDGES, *((u + 10, v + 10) for u, v in PETERSEN_EDGES)])
    report = batch_run([(0, two), (1, petersen)], modes=("both",))
    assert [(r.status, r.reason) for r in report.rows] == [
        ("skipped", "disconnected"), ("ok", None)]
    assert report.summary["skipped"] == 1 and not report.has_violation


def test_batch_oracle_mode(petersen, k4):
    report = batch_run([(0, petersen), (1, k4)], modes=("five", "oracle"))
    assert report.rows[0].oracle_w5 == 2
    assert report.rows[1].oracle_w5 == 0
    assert not report.has_violation


def test_batch_determinism(petersen):
    graphs = [(0, petersen), (1, gen_p3_ring(2))]
    a = json.dumps(batch_run(graphs, modes=("both",)).to_json(), sort_keys=True)
    b = json.dumps(batch_run(graphs, modes=("both",)).to_json(), sort_keys=True)
    assert a == b


def test_batch_empty():
    report = batch_run([], modes=("five",))
    assert report.rows == [] and not report.has_violation


def test_ring2_batch_notes_unclassifiable():
    report = batch_run([(0, gen_p3_ring(2))], modes=("odd",))
    assert report.rows[0].odd_note is not None
    assert not report.has_violation
