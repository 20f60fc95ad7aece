"""The certified pipeline guards its invariants with typed errors.

An ``assert`` is stripped by ``python -O``, so a broken invariant would pass
silently there; the modules a certificate depends on must not use one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

CERTIFIED_MODULES = ("coloring", "connectivity", "factors", "matching", "patterns",
                     "reductions", "solver")
SRC = Path(__file__).resolve().parent.parent / "src" / "pentafactor"


@pytest.mark.parametrize("module", CERTIFIED_MODULES)
def test_no_assert_statements(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module}.py has assert statements on lines {lines}"
