import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_demo_03_two_pd_routes_agree():
    lines = _run(ROOT / "demos" / "03_monomial_invariants.py").stdout.splitlines()
    values = {}
    for line in lines:
        label, _, value = line.partition(":")
        if label in ("pd via restrictions", "pd via resolution"):
            values[label] = value.strip()
    assert len(values) == 2
    assert values["pd via restrictions"] == values["pd via resolution"]


def test_demo_04_prints_grade_cd_and_pd():
    lines = _run(ROOT / "demos" / "04_linkage_walkthrough.py").stdout.splitlines()
    assert "a: grade 2, cd 3, pd 3" in lines
    assert "b: grade 2, cd 3, pd 3" in lines
