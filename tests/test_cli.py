"""CLI verbs, exit codes, and JSON bundles."""

from __future__ import annotations

import hashlib
import json

import pytest

from pentafactor.cli import main
from pentafactor.families import gen_chain_family, gen_petersen
from pentafactor.formats import serialize_graph

from tests.hosts import exceptional_22_host


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_text(serialize_graph(gen_petersen()) + "\n")
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain1.g6"
    p.write_text(serialize_graph(gen_chain_family(1)) + "\n")
    return str(p)


def test_gen_and_oracle(capsys, petersen_file):
    assert main(["oracle", petersen_file]) == 0
    out = capsys.readouterr().out
    assert "five_cyclicity=2" in out and "oddness=2" in out


def test_gen_family(capsys):
    assert main(["gen", "chain", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out  # one graph6 line
    assert main(["gen", "petersen"]) == 0


def test_solve5_chain(capsys, chain_file, tmp_path):
    bundle = tmp_path / "bundle.json"
    assert main(["solve5", chain_file, "--json", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "achieved=4" in out
    payload = json.loads(bundle.read_text())
    assert payload["certificate"]["achieved"] == 4
    assert payload["factor"]["count3"] == 0


def test_verify_bundle(capsys, chain_file, tmp_path):
    bundle = tmp_path / "bundle.json"
    main(["solve5", chain_file, "--json", str(bundle)])
    capsys.readouterr()
    assert main(["verify", str(bundle)]) == 0


def test_verify_detects_tampering(capsys, chain_file, tmp_path):
    bundle = tmp_path / "bundle.json"
    main(["solve5", chain_file, "--json", str(bundle)])
    payload = json.loads(bundle.read_text())
    payload["certificate"]["achieved"] = 0
    bundle.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(bundle)]) == 2


def test_oddness_and_reduce(capsys, petersen_file):
    assert main(["oddness", petersen_file]) == 0
    assert main(["reduce", petersen_file]) == 0
    out = capsys.readouterr().out
    assert "terminal=Petersen" in out


def test_patterns_json(capsys, chain_file, tmp_path):
    out_path = tmp_path / "patterns.json"
    assert main(["patterns", chain_file, "--mode", "fivecyc", "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    kinds = [o["kind"] for o in payload["occurrences"]]
    assert kinds.count("P1") == 3
    assert all({"kind", "vertices", "boundary", "class_tag"} <= set(o) for o in payload["occurrences"])


# (input, mode): (summary line, first 16 hex digits of the sha256 of the
# --json file).
PATTERNS_PINS = {
    ("chain:1", "oddness"): (
        "patterns n=32 P1=3 P2=0 P3=6 classified: p1=3 p2=0 p3=0", "2ebb429f23d38a75"),
    ("exception-22", "oddness"): (
        "patterns n=22 P1=2 P2=2 P3=4 classified: p1=0 p2=2 p3=0", "ac5875639dad8c40"),
    ("exception-22", "fivecyc"): (
        "patterns n=22 P1=2 P2=2 P3=4 classified: p1=2 p2=0 p3=0", "e2fa99a17d2cfd15"),
}


@pytest.mark.parametrize("name,mode", sorted(PATTERNS_PINS))
def test_patterns_json_pinned(capsys, tmp_path, name, mode):
    g = {"chain:1": lambda: gen_chain_family(1), "exception-22": exceptional_22_host}[name]()
    src = tmp_path / "in.g6"
    src.write_text(serialize_graph(g) + "\n")
    out_path = tmp_path / "patterns.json"
    assert main(["patterns", str(src), "--mode", mode, "--json", str(out_path)]) == 0
    line, digest = PATTERNS_PINS[name, mode]
    assert capsys.readouterr().out.splitlines()[0] == line
    assert hashlib.sha256(out_path.read_bytes()).hexdigest()[:16] == digest


def test_emit_trace_in_bundle(capsys, tmp_path):
    from pentafactor.graphs import CubicGraph, PETERSEN_EDGES

    edges = dict(enumerate(PETERSEN_EDGES))
    del edges[0]
    edges.update({100: (0, 10), 101: (10, 11), 102: (11, 1), 103: (10, 11)})
    snark12 = CubicGraph(edges)
    gpath = tmp_path / "snark12.mg"
    gpath.write_text(serialize_graph(snark12) + "\n")
    bundle = tmp_path / "bundle.json"
    assert main(["solve5", str(gpath), "--json", str(bundle)]) == 0
    trace = json.loads(bundle.read_text())["certificate"]["trace"]
    assert trace and trace[0]["kind"] == "TwoCycle"


def test_batch_generator_spec(capsys):
    assert main(["batch", "chain:1..2", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


@pytest.mark.parametrize("argv", [
    ["gen", "p3ring", "5"],  # odd ring sizes are skipped, so nothing is left
    ["gen", "petersen", "7"],
    ["batch", "chain:3..1"],
    ["batch", "p3ring:5..5"],
])
def test_empty_generator_spec_is_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ValueError" in captured.err


def test_batch_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert main(["batch", str(empty)]) == 0


def test_operational_error_exit(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    assert main(["solve5", str(missing)]) == 1


def test_solve_graph_without_vertices(capsys, tmp_path):
    # graph6 "?" is the graph with no vertex: not connected, so not
    # 2-edge-connected.
    empty = tmp_path / "empty.g6"
    empty.write_text("?\n")
    assert main(["solve5", str(empty)]) == 1
    assert "HasBridge" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(gen_petersen()) + "\n"))
    assert main(["solve5", "-"]) == 0
    assert "exceptional" in capsys.readouterr().out
