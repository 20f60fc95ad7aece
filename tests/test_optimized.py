"""The golden, reduction, pattern and solver suites under ``python -O``.

Invariants that back a certified claim raise typed errors rather than
asserting, so stripping asserts must not change any result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def test_golden_reductions_and_patterns_pass_under_optimize():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py", "tests/test_reductions.py", "tests/test_patterns.py",
         "tests/test_solver.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
