"""Committed reports, regenerated through ``cli.main`` and compared byte for byte.

The files under ``tests/golden/`` pin this toolchain (numpy 2.4.6): a
change of numpy can move the last digit of a float, so a toolchain change
regenerates them on purpose, with a note in ``CHANGES.md``.  Regenerate
the named cases with ``PYTHONPATH=src python tests/test_golden.py [name ...]``,
and every case when no name is given.  Each case is rendered a second
time in a child process under OpenBLAS's Prescott kernels, so no report byte
depends on the BLAS kernel that the host selects.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

from atomdyn.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (command, seed, config)
CASES = {
    "verify": ("verify", 7, {}),
    "chernoff": ("chernoff", 3, {}),
    "semigroup-gaussian": ("semigroup", 3, {"family": "gaussian"}),
    "semigroup-cauchy": ("semigroup", 3, {"family": "cauchy"}),
    "dephase-gaussian": ("dephase", 3, {"family": "gaussian"}),
    "dephase-cauchy": ("dephase", 3, {"family": "cauchy"}),
    "cesaro": ("cesaro", 2, {"X_list": [10.0, 50.0]}),
    # large windows, and a gap and a step other than 1
    "cesaro-blocks": ("cesaro", 4, {"X_list": [1e4, 3e4], "delta_p": 0.9, "gap_s": 0.7}),
    "walk-decay-gaussian": ("walk-decay", 3, {}),
    "walk-decay-rademacher": ("walk-decay", 5, {
        "distribution": {"kind": "rademacher"},
        "N_list": [100, 1000],
        "u": {"atoms": [{"p": 0.0, "re": 0.6, "im": 0.0},
                        {"p": 1.0, "re": 0.0, "im": 0.8}]},
        "v": {"atoms": [{"p": 0.0, "re": 0.8, "im": 0.0},
                        {"p": 2.0, "re": 0.6, "im": 0.0}]},
    }),
    # phase means over up to 100,003 draws, each taken by one np.mean
    "walk-decay-cauchy": ("walk-decay", 6, {
        "distribution": {"kind": "cauchy", "gamma": 1.0},
        "N_list": [100, 10000, 100000],
        "probe_p": 0.7,
    }),
    "walk-decay-mixture": ("walk-decay", 7, {
        "distribution": {"kind": "mixture", "components": [
            {"weight": 0.5, "distribution": {"kind": "rademacher"}},
            {"weight": 0.5, "distribution": {"kind": "gaussian", "D": 1.0}}]},
        "N_list": [1000, 20000, 65537],
        "u": {"atoms": [{"p": 0.0, "re": 0.6, "im": 0.0},
                        {"p": 1.0, "re": 0.0, "im": 0.8}]},
        "v": {"atoms": [{"p": 0.0, "re": 0.8, "im": 0.0},
                        {"p": 2.0, "re": 0.6, "im": 0.0}]},
    }),
    "walk-decay-rademacher-large": ("walk-decay", 8, {
        "distribution": {"kind": "rademacher"},
        "N_list": [16384, 50000, 100003],
        "probe_p": 1.3,
        "u": {"atoms": [{"p": 0.0, "re": 0.6, "im": 0.0},
                        {"p": 1.0, "re": 0.0, "im": 0.8}]},
        "v": {"atoms": [{"p": 0.0, "re": 0.8, "im": 0.0},
                        {"p": 2.0, "re": 0.6, "im": 0.0}]},
    }),
}


def _report(tmp, name, fmt, workers, env=None):
    """The report's bytes, from ``main`` in process, or from a child with the environment env."""
    command, seed, cfg = CASES[name]
    cfg_path = tmp / f"{name}.config.json"
    cfg_path.write_text(json.dumps(dict(cfg, workers=workers)))
    out = tmp / f"{name}.{fmt}"
    args = [command, "--seed", str(seed), "--config", str(cfg_path),
            "--out", str(out), "--format", fmt]
    if env is None:
        main(args)
    else:
        child = subprocess.run([sys.executable, "-m", "atomdyn.cli", *args], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name, fmt, workers):
    assert _report(tmp_path, name, fmt, workers) == (GOLDEN / f"{name}.{fmt}").read_bytes()


# OpenBLAS reads OPENBLAS_CORETYPE when numpy loads it; Prescott's SSE3 kernels run on any
# host that runs this numpy build, whose baseline is X86_V2
@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS core types of x86-64")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_independent_of_the_blas_kernel(tmp_path, name, fmt, workers):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    assert _report(tmp_path, name, fmt, workers, env) == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}, not among {sorted(CASES)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for fmt in ("csv", "json"):
                (GOLDEN / f"{name}.{fmt}").write_bytes(
                    _report(pathlib.Path(tmp), name, fmt, 1))
