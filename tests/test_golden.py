"""Committed reports, regenerated through ``cli.main`` and compared byte for byte.

The files under ``tests/golden/`` pin this toolchain (numpy 2.4.6): a
change of numpy can move the last digit of a float, so a toolchain change
regenerates them on purpose, with a note in ``CHANGES.md``.  Regenerate
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib

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
    # 63,662 and 190,986 trapezoid nodes: several blocks of the window average
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
    # sums of up to 100,003 terms, which stream through numpy's pairwise tree
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


def _report(tmp, name, fmt, workers):
    command, seed, cfg = CASES[name]
    cfg_path = tmp / f"{name}.config.json"
    cfg_path.write_text(json.dumps(dict(cfg, workers=workers)))
    out = tmp / f"{name}.{fmt}"
    main([command, "--seed", str(seed), "--config", str(cfg_path),
          "--out", str(out), "--format", fmt])
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name, fmt, workers):
    assert _report(tmp_path, name, fmt, workers) == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for fmt in ("csv", "json"):
                (GOLDEN / f"{name}.{fmt}").write_bytes(
                    _report(pathlib.Path(tmp), name, fmt, 1))
