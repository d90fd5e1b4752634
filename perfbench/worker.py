"""One fresh interpreter running one workload pass; the result goes to stdout as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes:
  setup  import the package, draw the first inputs, print READY and exit;
  run    the same set-up, then the timed closed loop, one task at a time, over
         the cycles that take about S seconds at seed speed (n_cycles), with
         task times also in reference seconds (common.HostClock);
  trace  the first half of those cycles twice with the same inputs, first
         untraced and then traced, for the per-layer metrics and the tracing
         overhead.

run.py starts it with PYTHONPATH pointing at the repository's src.  READY
is printed once set-up is done, so the parent can time set-up from outside.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from time import perf_counter

from common import WORK, HostClock, Ledger, check_ops, n_cycles

def _module(workload):
    if workload == "sparse-large":
        import sparse as mod
    elif workload == "state-eval":
        import states as mod
    else:
        import clisweeps as mod
    return mod


def _in_process_cli():
    """Run `atomdyn <argv>` in this interpreter; returns the exit code."""
    import atomdyn.cli

    def invoke(argv):
        try:
            return atomdyn.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code

    return invoke


def _task_runner(workload, mod, seed, clock):
    """(task, ledger) -> (seconds spent in the program, the same in reference
    seconds, seconds spent on the benchmark's own work).

    In-process tasks are timed in reference seconds on `clock`; the
    in-process cli commands of the traced run are not.
    """
    if workload == "cli-sweeps":
        invoke = _in_process_cli()
        workdir = WORK / f"cli-sweeps-seed{seed}-trace"
        workdir.mkdir(parents=True, exist_ok=True)

        def run(task, ledger):
            walls, _, check_s = mod.run_pair(task, workdir, invoke, ledger)
            return sum(walls), sum(walls), check_s

        return run

    def run(task, ledger):
        g0 = perf_counter()
        ops = mod.ops(task)
        # every task starts from an empty young generation, so the collections
        # inside it depend on its own allocations, not on what ran before it
        gc.collect()
        t0 = perf_counter()
        outcomes, busy, reference = clock.run_ops(ops)
        t1 = perf_counter()
        check_ops(outcomes, ledger)
        return busy, reference, (t1 - t0 - busy) + (t0 - g0) + (perf_counter() - t1)

    return run


def timed_loop(mod, seed, seconds, first_cycle, run, ledger):
    """Closed loop, one task at a time, over the run's fixed set of cycles.

    Returns the task times in measured and in reference seconds, and the
    loop's wall time without the benchmark's own work.
    """
    times, ref_times = [], []
    overhead = 0.0
    start = perf_counter()
    for index in range(n_cycles(mod, seconds)):
        g0 = perf_counter()
        tasks = first_cycle if index == 0 else mod.cycle(seed, index)
        overhead += perf_counter() - g0
        for task in tasks:
            busy, reference, extra = run(task, ledger)
            times.append(busy)
            ref_times.append(reference)
            overhead += extra
    return times, ref_times, perf_counter() - start - overhead


def traced_passes(workload, mod, seed, seconds, run, ledger):
    """The first half of the run's cycles untraced, then traced; per-layer metrics."""
    from tracer import Tracer

    tasks = [t for i in range(max(1, n_cycles(mod, seconds) // 2)) for t in mod.cycle(seed, i)]
    plain = sum(run(t, Ledger())[1] for t in tasks)
    tracer = Tracer()
    tracer.install()
    traced = sum(run(t, ledger)[1] for t in tasks)
    layers = tracer.metrics()
    layers["trace.overhead_frac"] = traced / plain - 1.0
    tracer.write_spans(WORK / f"spans-{workload}-seed{seed}.jsonl")
    return {"layers": layers, "tasks": len(tasks)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    # IntegrationWarnings would flood stderr; the traced pass counts them
    warnings.simplefilter("ignore")

    if args.workload == "cli-sweeps":
        import atomdyn.cli  # noqa: F401
    else:
        import atomdyn  # noqa: F401
    mod = _module(args.workload)
    first_cycle = mod.cycle(args.seed, 0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    clock = HostClock()
    run = _task_runner(args.workload, mod, args.seed, clock)
    ledger = Ledger()
    if args.mode == "run":
        times, ref_times, loop_s = timed_loop(mod, args.seed, args.seconds, first_cycle, run,
                                              ledger)
        result = {"task_s": times, "task_ref_s": ref_times, "loop_s": loop_s,
                  "calib_s": clock.samples}
    else:
        result = traced_passes(args.workload, mod, args.seed, args.seconds, run, ledger)
    result["ledger"] = ledger.to_json()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
