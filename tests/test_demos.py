"""Each demo runs and prints exactly its committed output.

``tests/golden/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``,
compared byte for byte; like the reports under ``tests/golden/``, it pins
this toolchain.  Regenerate the named demos with ``PYTHONPATH=src python
tests/test_demos.py [stem ...]`` (``02_cesaro_and_fourier``), and every demo
when no stem is given.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def _run(demo):
    # a RuntimeWarning fails the demo, as pyproject's filterwarnings does in process
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, cwd=ROOT, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = _run(demo)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    by_stem = {demo.stem: demo for demo in DEMOS}
    stems = sys.argv[1:] or list(by_stem)
    unknown = sorted(set(stems) - set(by_stem))
    if unknown:
        sys.exit(f"unknown demos {unknown}, not among {list(by_stem)}")
    GOLDEN.mkdir(exist_ok=True)
    for stem in stems:
        res = _run(by_stem[stem])
        res.check_returncode()
        (GOLDEN / f"{stem}.txt").write_bytes(res.stdout)
