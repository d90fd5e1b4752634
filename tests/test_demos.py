import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=ROOT, timeout=120)
    assert res.returncode == 0, res.stderr
