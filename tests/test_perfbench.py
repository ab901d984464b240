"""The benchmark's toy-size smoke check, run as part of the test suite.

The traced benchmark run wraps package functions by name from outside
(`perfbench/tracer.py`), so renaming or deleting one of them breaks it;
running the smoke check here makes that a test failure.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
