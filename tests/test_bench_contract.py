"""The names the benchmark's tracer wraps must exist in the library, and a
traced pass must reach every layer the benchmark requires.

``bench/spans.py`` replaces each function listed in ``TRACED`` by name in its
home module, and the bench checks certificates for two solver flags.  The
traced run of ``bench/run.py`` fails when a layer named in its ``EXERCISED``
records no call.  A renamed, moved or no longer called function would
otherwise only show up in a traced bench run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize(
    "module_name,func_name",
    [(m, f) for m, names in _traced().items() for f in names],
)
def test_traced_name_resolves(module_name, func_name):
    home = importlib.import_module(f"pentafactor.{module_name}")
    assert callable(getattr(home, func_name, None)), f"{module_name}.{func_name}"


def test_bench_solver_flags_exist():
    from pentafactor import solver

    assert isinstance(solver.FLAG_EXCEPTIONAL, str)
    assert isinstance(solver.FLAG_BEST_EFFORT, str)


# A small slice of each workload that still reaches every required layer.
_SLICES = {
    "snarks": lambda inputs: [inp for inp in inputs if inp.name == "chain:1"],
    # A Petersen-based input reduces to Petersen and never reaches the
    # pattern search, so the slice takes the first chain-based one.
    "reducible": lambda inputs: [inp for inp in inputs if inp.name.startswith("chain:1+")][:1],
    "p2ring": lambda inputs: [inp for inp in inputs if inp.name.startswith("p2ring:3#")][:1],
    # Row 76 is Petersen with a vertex expanded into a triangle, the first row
    # whose solve takes a reduction step, so the slice reaches
    # enumerate_circuits_up_to through reduce_girth_step as the full pass does.
    "census14": lambda rows: rows[:12] + [rows[76]],
}


@pytest.mark.parametrize("workload", sorted(_SLICES))
def test_traced_pass_reaches_every_exercised_layer(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    from spans import Tracer

    inputs = _SLICES[workload](workloads.GENERATORS[workload](0))
    assert inputs
    with Tracer() as tracer:
        res = run.pass_function(workload, inputs, None, tracer)()
    assert res.failed == 0, res.failures
    totals = tracer.layer_totals()
    silent = [name for name in run.EXERCISED[workload] if not totals.get(name, {}).get("calls")]
    assert silent == [], f"{workload}: no call recorded for {silent}"
