"""Every demo script runs to completion against the checkout's sources and
prints exactly its recorded output, ``tests/data/demos/<demo>.txt``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "data" / "demos"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
