"""The atomdyn benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ./src.
Workloads (see BENCHMARK.json and BASELINE.json in this directory):

  cli-sweeps    `python -m atomdyn.cli <command>` subprocesses, one at a time;
  sparse-large  large atomic vectors through atoms and algebra, in one
                fresh interpreter;
  state-eval    small states through channels and rand, in one fresh
                interpreter.

--seconds sizes the run: round(seconds / CYCLE_SECONDS) cycles of the
workload's tasks, a fixed amount of work that takes about that long at seed.
Times are reported in reference seconds (common.HostClock): set-up and the
cli-sweeps commands are scaled by a bare interpreter started before the first
and after each, the tasks of the in-process workloads by a calibration
kernel timed between stretches of work.
Every operation is checked against an oracle the benchmark computes itself
(oracles.py).  With --trace 0 the run measures the end-to-end metrics; with
--trace 1 it runs the first half of those cycles untraced and then traced
(tracer.py) and reports the per-layer metrics.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.

`correct` is false when a check fails that BENCHMARK.json does not list as a
known failure (a per-layer metric named fail.<check>); `failed` counts every
failed operation, known or not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import subprocess
import sys
from time import monotonic, perf_counter

import clisweeps
from common import (CALIBRATION_REF_S, PACKAGE, ROOT, WORK, WORKLOADS, HostClock, Ledger,
                    child_env, median, n_cycles, run_metadata, tail)

DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5
INTERPRETER_REF_S = 0.07  # `python -c pass` on a 2-core Xeon host
COMMANDS = clisweeps.COMMANDS


class BenchError(Exception):
    pass


def _remaining(deadline):
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _run(cmd, deadline, **kwargs):
    """Run a child to completion; a timeout kills it and waits for it."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=_remaining(deadline),
                          **kwargs)


def _run_timed(cmd, deadline, **kwargs):
    """Run a child that writes to no pipe of ours; return its exit code.

    The wait is on a pidfd, so it ends as the child ends: a subprocess
    timeout polls with sleeps of up to 50 ms, which would be timed too.  A
    child still running at the deadline is killed and waited for.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), **kwargs)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ended = select.select([fd], [], [], _remaining(deadline))[0]
        finally:
            os.close(fd)
        if not ended:
            raise BenchError("out of time")
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _worker(workload, seed, seconds, mode, deadline):
    """Start worker.py; return (seconds until READY, parsed JSON result or None)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker failed during set-up: {line!r}")
        out, _ = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _subprocess_cli(deadline):
    def invoke(argv):
        return _run_timed([sys.executable, "-m", "atomdyn.cli", *argv], deadline,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    return invoke


def _cli_setup_s(deadline):
    """Wall time of a fresh interpreter that only imports atomdyn.cli."""
    t0 = perf_counter()
    if _run_timed([sys.executable, "-c", "import atomdyn.cli"], deadline) != 0:
        raise BenchError("cannot import atomdyn.cli")
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# end-to-end run


def _interpreter_clock(deadline):
    """A HostClock whose probe is a fresh interpreter that runs nothing.

    Set-up and the cli-sweeps commands are mostly the start of an
    interpreter and its imports, which the calibration kernel, timed in this
    process, does not follow; a bare interpreter does.  It imports nothing of
    atomdyn, numpy or scipy, so a faster import shows in full.
    """
    def probe():
        if _run_timed([sys.executable, "-c", "pass"], deadline) != 0:
            raise BenchError("cannot start an interpreter")

    clock = HostClock(probe, INTERPRETER_REF_S)
    clock.sample()
    return clock


def end_to_end(workload, seed, seconds, deadline):
    """The end-to-end metrics, in reference seconds (see common.HostClock).

    Set-up and the cli-sweeps commands are scaled by a bare interpreter timed
    before the first and after each; the tasks of the in-process workloads
    by the calibration kernel.
    """
    ledger = Ledger()
    clock = _interpreter_clock(deadline)
    setups, ref_setups = [], []
    for _ in range(SETUP_SAMPLES):
        if workload == "cli-sweeps":
            setups.append(_cli_setup_s(deadline))
        else:
            setups.append(_worker(workload, seed, seconds, "setup", deadline)[0])
        ref_setups.append(clock.scale(setups[-1]))
    if workload == "cli-sweeps":
        times, ref_times, loop_s = _cli_loop(seed, seconds, ledger, deadline, clock)
        probe = ("interpreter", clock.samples[SETUP_SAMPLES:], INTERPRETER_REF_S)
    else:
        _, result = _worker(workload, seed, seconds, "run", deadline)
        times, ref_times, loop_s = result["task_s"], result["task_ref_s"], result["loop_s"]
        ledger.merge(result["ledger"])
        probe = ("calibration kernel", result["calib_s"], CALIBRATION_REF_S)
    value, pct, n = tail(ref_times)
    metrics = {
        "setup_s": median(ref_setups),
        "task_s.p50": median(ref_times),
        "task_s.tail": value,
        # the loop's wall time, scaled as its tasks are
        "tasks_per_s": len(times) / (loop_s * sum(ref_times) / sum(times)),
        "pass_frac": 1.0 - ledger.n_failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = [
        f"task_s.tail is p{pct:.1f} of {n} tasks",
        f"measured seconds: setup_s {median(setups):.6g}, task_s.p50 {median(times):.6g}, "
        f"task_s.tail {tail(times)[0]:.6g}, tasks_per_s {len(times) / loop_s:.6g}",
        f"set-up probe: interpreter median {median(clock.samples[:SETUP_SAMPLES + 1]):.6g} s, "
        f"reference {INTERPRETER_REF_S:g} s; task probe: {probe[0]} median "
        f"{median(probe[1]):.6g} s over {len(probe[1])} samples, reference {probe[2]:g} s",
    ]
    return metrics, ledger, notes


def _cli_loop(seed, seconds, ledger, deadline, clock):
    """Closed loop over the run's cycles of config pairs (workers 1 then 2).

    Returns the command times in measured and in reference seconds (on
    `clock`, sampled after each command) and the loop's wall time without
    the benchmark's own work.
    """
    workdir = WORK / f"cli-sweeps-seed{seed}-run"
    workdir.mkdir(parents=True, exist_ok=True)
    invoke = _subprocess_cli(deadline)
    times, ref_times, overhead = [], [], 0.0

    def after_each(wall):
        ref_times.append(clock.scale(wall))

    start = perf_counter()
    for index in range(n_cycles(clisweeps, seconds)):
        for task in clisweeps.cycle(seed, index):
            walls, _, extra = clisweeps.run_pair(task, workdir, invoke, ledger, after_each)
            times += walls
            overhead += extra
    loop_s = perf_counter() - start - overhead
    shutil.rmtree(workdir, ignore_errors=True)
    return times, ref_times, loop_s


# ---------------------------------------------------------------------------
# traced run


def traced(workload, seed, seconds, deadline, known):
    ledger = Ledger()
    module = "atomdyn.cli" if workload == "cli-sweeps" else "atomdyn"
    samples = [_import_times(module, deadline) for _ in range(SETUP_SAMPLES)]
    metrics = {key: median([s[key] for s in samples]) for key in samples[0]}
    # one pair per command for cli-sweeps; the other workloads run no command
    commands = clisweeps.cycle(seed, 0)[:len(COMMANDS)] if workload == "cli-sweeps" else []
    metrics.update(_cli_layers(commands, seed, ledger, deadline))
    _, result = _worker(workload, seed, seconds, "trace", deadline)
    metrics.update(result["layers"])
    ledger.merge(result["ledger"])
    for check in known:
        metrics[f"fail.{check}"] = ledger.failed.get(check, 0)
    shutil.rmtree(WORK / f"{workload}-seed{seed}-trace", ignore_errors=True)
    return metrics, ledger, [f"traced tasks: {result['tasks']}"]


def _import_times(module, deadline):
    """`python -X importtime -c 'import <module>'`: self times summed per package."""
    proc = _run([sys.executable, "-X", "importtime", "-c", f"import {module}"], deadline,
                capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cannot import {module}")
    total = {"all": 0, "scipy": 0, "numpy": 0, "atomdyn": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        total["all"] += int(self_us)
        if top in total:
            total[top] += int(self_us)
    return {
        "import.total_s": total["all"] / 1e6,
        "import.scipy_s": total["scipy"] / 1e6,
        "import.numpy_s": total["numpy"] / 1e6,
        "import.atomdyn_self_s": total["atomdyn"] / 1e6,
    }


def _cli_layers(tasks, seed, ledger, deadline):
    """cli.<command>.wall_s and runtime_s from subprocess pairs of `tasks`.

    A command that does not run reads 0.
    """
    walls = {cmd: [] for cmd in COMMANDS}
    runtimes = {cmd: [] for cmd in COMMANDS}
    workdir = WORK / f"cli-sweeps-seed{seed}-layers"
    workdir.mkdir(parents=True, exist_ok=True)
    invoke = _subprocess_cli(deadline)
    for task in tasks:
        w, r, _ = clisweeps.run_pair(task, workdir, invoke, ledger)
        walls[task["command"]] += w
        runtimes[task["command"]] += r
    shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    for cmd in COMMANDS:
        out[f"cli.{cmd}.wall_s"] = sum(walls[cmd]) / len(walls[cmd]) if walls[cmd] else 0.0
        out[f"cli.{cmd}.runtime_s"] = (
            sum(runtimes[cmd]) / len(runtimes[cmd]) if runtimes[cmd] else 0.0)
    all_walls = sum(sum(w) for w in walls.values())
    out["cli.compute_share"] = (
        sum(sum(r) for r in runtimes.values()) / all_walls if all_walls else 0.0)
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    known = [m["name"][len("fail."):] for m in spec["per_layer"] if m["name"].startswith("fail.")]

    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, ledger, notes = traced(args.workload, args.seed, args.seconds, deadline,
                                            known)
        else:
            metrics, ledger, notes = end_to_end(args.workload, args.seed, args.seconds,
                                                deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# atomdyn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(run_metadata(), sort_keys=True))
    for note in notes:
        print("# " + note)
    for name, count in sorted(ledger.failed.items()):
        status = "known" if name in known else "NEW"
        print(f"# failed check {name} x{count} ({status}): {ledger.reasons[name]}")
    out = {}
    for m in listed:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")
    unexpected = sorted(set(ledger.failed) - set(known))
    print(json.dumps({"correct": not unexpected, "attempted": ledger.attempted,
                      "failed": ledger.n_failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
