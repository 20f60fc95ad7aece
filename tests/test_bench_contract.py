"""The names the benchmark's tracer wraps must exist in the library.

``bench/spans.py`` replaces each function listed in ``TRACED`` by name in its
home module, and the bench checks certificates for two solver flags.  A
renamed or moved function would otherwise only show up in a traced bench run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
