"""cli-sweeps: `python -m atomdyn.cli <command>` as a user runs it.

One cycle holds 13 configs covering all six commands: verify; chernoff under
rademacher, gaussian, uniform and a rademacher+gaussian mixture; cesaro with
X up to 1e5; walk-decay with N up to 1e5 under gaussian, cauchy and uniform
laws; semigroup and dephase under both families.  The seed draws every
parameter, the command seeds and the order; the first six configs of a cycle
are one per command.  Report formats alternate along the fixed config list
and the alternation flips every cycle, so every config meets both formats
and each cycle holds the same csv/json mix.  Each config runs once with
workers 1 and once with workers 2, and the two reports must be
byte-identical.

This module only writes configs and checks reports; it does not import
atomdyn, so the process that runs the subprocesses stays light.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from time import perf_counter

import oracles as ref

COMMANDS = ("verify", "chernoff", "cesaro", "walk-decay", "semigroup", "dephase")
CYCLE_SECONDS = 26.0  # one cycle takes about 26 s at seed on a 2-core Xeon host


def _gaussian_doc(D):
    return {"kind": "gaussian", "D": D}


def _uniform_doc(w):
    return {"kind": "uniform", "a": -w, "b": w}


def _mixture_doc(D):
    return {"kind": "mixture", "components": [
        {"weight": 0.5, "distribution": {"kind": "rademacher"}},
        {"weight": 0.5, "distribution": _gaussian_doc(D)},
    ]}


def cycle(seed: int, index: int):
    """The index-th cycle of (command, config, cli seed, format) for a seed."""
    rng = random.Random(f"cli-sweeps/{seed}/{index}")
    u = rng.uniform
    configs = [("verify", {})]
    for kind in ("rademacher", "gaussian", "uniform", "mixture"):
        w = u(0.5, 2.0)
        doc = {"rademacher": {"kind": "rademacher"}, "gaussian": _gaussian_doc(w),
               "uniform": _uniform_doc(w),
               "mixture": _mixture_doc(w)}[kind]
        n0 = rng.randint(5, 50)
        configs.append(("chernoff", {
            "distribution": doc, "t": u(0.5, 2.0),
            "probes": sorted(u(0.1, 3.0) for _ in range(4)),
            "n_list": [n0, 2 * n0, 10 * n0, 20 * n0, 100 * n0],
        }))
    # delta_p and gap_s at most 1 keep the node count at X = 1e5 (and so the
    # peak memory of a cycle) the same for every seed
    configs.append(("cesaro", {
        "delta_p": u(0.5, 1.0), "gap_s": u(0.5, 1.0),
        "X_list": [10 ** u(2, 3), 10 ** u(3, 4), 1e5],
    }))
    for doc in (_gaussian_doc(u(0.5, 2.0)), {"kind": "cauchy", "gamma": u(0.5, 2.0)},
                _uniform_doc(u(0.5, 2.0))):
        configs.append(("walk-decay", {
            "distribution": doc, "probe_p": u(0.5, 2.0),
            "N_list": [int(10 ** u(2, 3)), int(10 ** u(3, 4)), 100_000],
        }))
    for family in ("gaussian", "cauchy"):
        configs.append(("semigroup", {
            "family": family, "t_list": [0.0] + sorted(u(0.0, 2.0) for _ in range(3)),
        }))
    for family in ("gaussian", "cauchy"):
        configs.append(("dephase", {
            "family": family, "delta_p": u(0.5, 3.0),
            "t_list": [0.0] + sorted(u(0.0, 4.0) for _ in range(4)),
        }))
    tasks = [
        {"command": cmd, "config": cfg, "seed": rng.randrange(2**31),
         "format": ("csv", "json")[(j + index) % 2]}
        for j, (cmd, cfg) in enumerate(configs)
    ]
    firsts = [next(t for t in tasks if t["command"] == cmd) for cmd in COMMANDS]
    rest = [t for t in tasks if not any(t is f for f in firsts)]
    rng.shuffle(firsts)
    rng.shuffle(rest)
    return firsts + rest


def argv(task: dict, config_path: str, out_path: str):
    """Command-line arguments after `atomdyn` for one run of a config."""
    return [task["command"], "--config", config_path, "--seed", str(task["seed"]),
            "--out", out_path, "--format", task["format"]]


def config_text(task: dict, workers: int) -> str:
    return json.dumps(dict(task["config"], workers=workers))


def run_pair(task, workdir: Path, invoke, ledger, after_each=None):
    """One config with workers 1 and 2.

    Returns the two wall times, the two runtime_s read from the sidecars and
    the time spent writing configs and checking reports.  `after_each`, if
    given, is called with each wall time as soon as the command has ended;
    its time counts as the benchmark's own.
    """
    name = f"cli.{task['command']}"
    walls, runtimes, reports = [], [], []
    overhead = 0.0
    for workers in (1, 2):
        g0 = perf_counter()
        cfg = workdir / f"config-w{workers}.json"
        out = workdir / f"report-w{workers}.{task['format']}"
        meta = Path(str(out) + ".meta.json")
        cfg.write_text(config_text(task, workers))
        for path in (out, meta):
            path.unlink(missing_ok=True)
        t0 = perf_counter()
        code = invoke(argv(task, str(cfg), str(out)))
        t1 = perf_counter()
        walls.append(t1 - t0)
        if after_each is not None:
            after_each(t1 - t0)
        report, reason, plain = None, None, "no report"
        try:
            report = out.read_bytes()
            runtimes.append(json.loads(meta.read_text())["runtime_s"])
            rows, plain_cells = parse_report(report.decode(), task["format"])
            reason = check_rows(task, rows)
            plain = None if plain_cells else "report holds values that are not plain numbers"
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable report: {type(exc).__name__}: {exc}"
        reason = ref.check_exit(code) or reason
        ledger.record(name, reason)
        ledger.record("cli.report_numbers", plain)
        reports.append(report)
        overhead += (t0 - g0) + (perf_counter() - t1)
    ledger.record("cli.workers_identical", ref.check_identical(*reports))
    return walls, runtimes, overhead


# ---------------------------------------------------------------------------
# report oracles


def parse_report(text: str, fmt: str):
    """(rows, whether every value is a plain number, bool or empty)."""
    if fmt == "json":
        return json.loads(text)["rows"], True
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows, plain = [], True
    for line in lines[1:]:
        cells = [_cell(x) for x in line.split(",")]
        plain = plain and all(ok for _, ok in cells)
        rows.append(dict(zip(columns, (value for value, _ in cells))))
    return rows, plain


def _cell(text: str):
    """(value, plain).  A numpy scalar repr such as np.float64(0.5) reads as
    0.5, so the row can still be checked, but it is not a plain number."""
    if text == "":
        return None, True
    if text in ("True", "False"):
        return text == "True", True
    if text.startswith("np.float64(") and text.endswith(")"):
        return float(text[len("np.float64("):-1]), False
    for kind in (int, float):
        try:
            return kind(text), True
        except ValueError:
            pass
    return text, True


def _law(doc):
    kind = doc["kind"]
    if kind == "gaussian":
        return ("gaussian", doc["D"])
    if kind == "cauchy":
        return ("cauchy", doc["gamma"])
    if kind == "uniform":
        return ("uniform", doc["a"], doc["b"])
    if kind == "rademacher":
        return ("rademacher",)
    return ("mixture", doc["components"][1]["distribution"]["D"])


def _chi_pow(law, x, n):
    if law[0] == "gaussian":
        return math.exp(-0.5 * n * law[1] * x * x)
    return ref.chi(law, x) ** n


def _variance(law):
    return {"gaussian": lambda: law[1], "rademacher": lambda: 1.0,
            "uniform": lambda: (law[2] - law[1]) ** 2 / 12.0,
            "mixture": lambda: 0.5 + 0.5 * law[1]}[law[0]]()


def check_rows(task: dict, rows) -> str | None:
    """Oracle for one report; None when every row is right."""
    cfg = task["config"]
    cmd = task["command"]
    if not rows:
        return "report has no rows"
    for row in rows:
        reason = _ROW_CHECKS[cmd](cfg, row)
        if reason:
            return f"row {row}: {reason}"
    return None


def _verify_row(cfg, row):
    if row["passed"] is not True or not row["residual"] <= row["tolerance"]:
        return "check failed"
    return None


def _chernoff_row(cfg, row):
    law = _law(cfg["distribution"])
    t, n, D = cfg["t"], row["n"], _variance(law)
    rt = math.sqrt(t / n)
    want = max(abs(_chi_pow(law, rt * x, n) - math.exp(-0.5 * t * D * x * x))
               for x in cfg["probes"])
    # chi^n in two implementations differs by about n rounding errors
    return ref.check_close(row["sup_error"], want, 1e-15 * n + 1e-9 * want)


def _cesaro_row(cfg, row):
    X, dp, s = row["X"], cfg["delta_p"], cfg["gap_s"]
    # trapezoid with >= 20 nodes per period: relative error below 1%
    kron = abs(math.sin(dp * X) / (dp * X))
    gap = 2.0 - 2.0 * math.sin(s * X) / (s * X)
    return (ref.check_close(row["abs_error"], kron, 0.01 / (dp * X) + 1e-12)
            or ref.check_close(row["mod_gap"], gap, 0.02 / (s * X) + 1e-12))


def _walk_row(cfg, row):
    band = 4.0 / math.sqrt(row["N"])
    # continuous laws never shift the unit atom at 0 onto the one at 1
    return (ref.check_exact(row["shift_overlap_abs"], 0.0)
            or ref.check_exact(row["shift_stderr"], 0.0)
            or ref.check_close(row["clt_band"], band, 1e-15)
            or (None if row["mod_mean_error"] <= band else "mod_mean_error outside 4/sqrt(N)"))


def _semigroup_row(cfg, row):
    if not (row["residual_T"] <= 1e-10 and row["residual_Phi"] <= 1e-12):
        return "semigroup residual above tolerance"
    return None


def _dephase_row(cfg, row):
    t, dp = row["t"], cfg["delta_p"]
    chi = math.exp(-0.5 * t * dp * dp) if cfg["family"] == "gaussian" else math.exp(-t * abs(dp))
    return (ref.check_close(row["offdiag_abs"], 0.5 * chi, 1e-12)
            or ref.check_close(row["analytic"], 0.5 * chi, 1e-15))


_ROW_CHECKS = {
    "verify": _verify_row, "chernoff": _chernoff_row, "cesaro": _cesaro_row,
    "walk-decay": _walk_row, "semigroup": _semigroup_row, "dephase": _dephase_row,
}
