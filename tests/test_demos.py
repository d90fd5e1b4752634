"""Each demo runs and prints exactly its committed output.

``tests/golden/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``,
compared byte for byte; like the reports under ``tests/golden/``, it pins
this toolchain.  Regenerate with ``PYTHONPATH=src python tests/test_demos.py``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def _run(demo):
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=ROOT, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = _run(demo)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        res = _run(demo)
        res.check_returncode()
        (GOLDEN / f"{demo.stem}.txt").write_bytes(res.stdout)
