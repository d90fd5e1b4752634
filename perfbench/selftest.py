"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

1. Every oracle accepts the library's real result on a tiny input and
   rejects a deliberately perturbed copy of it.
2. run.py, at --seconds 1, emits exactly the metrics BENCHMARK.json names,
   each with its unit, for every workload and both --trace values.
3. run.py fails, without printing a result, in a directory that holds only
   BENCHMARK.json and this directory.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np

from common import ROOT, SRC, WORK, Ledger, run_ops

sys.path.insert(0, str(SRC))
warnings.simplefilter("ignore")

import atomdyn as ad  # noqa: E402
import atomdyn.cli  # noqa: E402
import clisweeps  # noqa: E402
import sparse  # noqa: E402
import states  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def bump_vector(vec):
    """The same vector with its first amplitude off by one part in 1e6."""
    atoms = [(a.p, a.c) for a in vec]
    atoms[0] = (atoms[0][0], atoms[0][1] * (1 + 1e-6))
    return ad.make_vector(atoms)


def nudge_frequency(vec):
    """The same vector with its first frequency moved by one ulp."""
    atoms = [(a.p, a.c) for a in vec]
    atoms[0] = (math.nextafter(atoms[0][0], math.inf), atoms[0][1])
    return ad.make_vector(atoms)


def perturbations(name, value):
    """Wrong results an oracle must reject, by the kind of the correct one."""
    if isinstance(value, ad.AtomicVector):
        return [bump_vector(value), nudge_frequency(value)]
    if isinstance(value, tuple) and isinstance(value[0], ad.AtomicVector):
        return [(bump_vector(value[0]), value[1]), (value[0], nudge_frequency(value[1]))]
    if name.endswith("shift_invariance"):
        return [(value[0], complex(math.nextafter(value[1].real, math.inf), value[1].imag))]
    if name.endswith("expect_mc"):
        return [value._replace(value=value.value + 5 * value.stderr)]
    if name == "weyl":
        return [2e-12]
    if isinstance(value, np.ndarray):
        wrong = value.copy()
        wrong[0, -1] += 1e-10
        return [wrong]
    if name.endswith("projector") or name.endswith("projector_mc"):
        if value == 0.0:
            return [1e-300]
        # 1e4 samples of a value in [0, 1]: four standard errors stay below 0.02
        return [value + 0.05] if name.endswith("_mc") else [value * (1 + 1e-6)]
    return [value + 1e-7 * max(1.0, abs(value))]


def oracle_cases(workload, task_ops):
    """Each operation's check accepts the real value and rejects every perturbation."""
    for name, value, exc, check in run_ops(task_ops):
        if exc is not None or check(value) is not None:
            print(f"[SKIP] {workload} {name}: fails on the real result (known defect)")
            continue
        rejected = all(check(wrong) is not None for wrong in perturbations(name, value))
        expect(rejected, f"{workload} {name}: accepts the real result, rejects perturbed ones")


def test_oracles():
    rng = np.random.default_rng(0)
    oracle_cases("sparse-large", sparse.ops(sparse.make_task(rng, 12, 4)))
    for kind in ("pure", "mixed", "normal8") + tuple(f"averaged.{law}" for law in states.LAWS):
        oracle_cases("state-eval", states.ops(states.make_task(rng, kind)))
    test_cli_oracles()


def test_cli_oracles():
    workdir = WORK / "selftest-cli"
    workdir.mkdir(parents=True, exist_ok=True)

    def invoke(argv):
        return atomdyn.cli.main(argv)

    perturb = {
        "verify": lambda row, cfg: dict(row, passed=False),
        "chernoff": lambda row, cfg: dict(row, sup_error=row["sup_error"] * 1.001 + 1e-9),
        "cesaro": lambda row, cfg: dict(
            row, abs_error=row["abs_error"] + 0.05 / (cfg["delta_p"] * row["X"])),
        "walk-decay": lambda row, cfg: dict(row, shift_overlap_abs=1e-300),
        "semigroup": lambda row, cfg: dict(row, residual_T=1e-9),
        "dephase": lambda row, cfg: dict(row, offdiag_abs=row["offdiag_abs"] + 1e-9),
    }
    for task in clisweeps.cycle(0, 0)[:len(clisweeps.COMMANDS)]:
        ledger = Ledger()
        clisweeps.run_pair(task, workdir, invoke, ledger)
        out = workdir / f"report-w1.{task['format']}"
        rows, _ = clisweeps.parse_report(out.read_text(), task["format"])
        cmd = task["command"]
        wrong = [perturb[cmd](row, task["config"]) if i == len(rows) - 1 else row
                 for i, row in enumerate(rows)]
        expect(set(ledger.failed) <= {"cli.report_numbers"}
               and clisweeps.check_rows(task, wrong) is not None,
               f"cli.{cmd}: accepts the real report, rejects a perturbed row")

    csv = "# atomdyn report v1\nN,err\n100,0.5\n"
    expect(clisweeps.parse_report(csv, "csv")[1]
           and not clisweeps.parse_report(csv.replace("0.5", "np.float64(0.5)"), "csv")[1],
           "cli: a numpy scalar repr in a csv report is not a plain number")

    task = clisweeps.cycle(0, 0)[0]
    ledger = Ledger()
    clisweeps.run_pair(task, workdir, lambda argv: 1, ledger)
    expect(ledger.failed.get(f"cli.{task['command']}") == 2, "cli: exit code 1 is a failure")

    def uneven(argv):
        code = invoke(argv)
        out = argv[argv.index("--out") + 1]
        if "-w2." in out:
            with open(out, "a") as fh:
                fh.write(" ")
        return code

    ledger = Ledger()
    clisweeps.run_pair(task, workdir, uneven, ledger)
    expect(ledger.failed.get("cli.workers_identical") == 1,
           "cli: reports that differ between workers 1 and 2 are a failure")
    shutil.rmtree(workdir, ignore_errors=True)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_emission():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: last stdout line is JSON (exit {proc.returncode})")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in doc["metrics"].items()}
            numbers = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                          for m in doc["metrics"].values())
            expect(proc.returncode == 0 and set(doc) == {"correct", "attempted", "failed",
                                                         "metrics"}
                   and doc["attempted"] >= 1 and got == want and numbers,
                   f"{label}: every {key} metric emitted once, with its unit")


def test_bare_directory():
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "state-eval", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    test_oracles()
    test_emission()
    test_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
