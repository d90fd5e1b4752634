"""Measure every workload over several seeds and summarise, for a baseline or a comparison.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--out perfbench/BASELINE.json]

Runs run.py once per (workload, seed) with --trace 0, one after the other,
and once per workload with --trace 1 on the first seed.  For each
end-to-end metric it reports the median, the quartiles (Python's
statistics.quantiles, n=4) and the quartile spread as a share of the
median -- the figures a change must quote before and after.  With --out the
summary of each workload run replaces its entry under the "measured" key of
that JSON file; everything else in the file is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines if line.startswith("# ")]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(workload, seeds, seconds):
    runs = [_run(workload, seed, seconds, 0) for seed in seeds]
    metrics = {}
    for name in runs[0][0]["metrics"]:
        values = [doc["metrics"][name]["value"] for doc, _ in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        metrics[name] = {"unit": runs[0][0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                         "values": values}
    traced, notes = _run(workload, seeds[0], seconds, 1)
    meta = next(n for n in runs[0][1] if n.startswith("meta "))
    return {
        "meta": json.loads(meta[len("meta "):]),
        "seeds": seeds,
        "end_to_end": metrics,
        "attempted": [doc["attempted"] for doc, _ in runs],
        "failed": [doc["failed"] for doc, _ in runs],
        "notes": [n for _, ns in runs for n in ns if n.startswith("task_s.tail")],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "trace_notes": [n for n in notes if not n.startswith("meta ")],
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="JSON file whose 'measured' key is replaced")
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    measured = {}
    for workload in args.workloads.split(","):
        measured[workload] = summarise(workload, seeds, args.seconds)
        for name, m in measured[workload]["end_to_end"].items():
            print(f"{workload:<13} {name:<12} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.4f}")
    summary = {"seconds": args.seconds, "workloads": measured}
    if args.out:
        path = ROOT / args.out
        doc = json.loads(path.read_text()) if path.exists() else {}
        kept = doc.get("measured", {}).get("workloads", {})
        doc["measured"] = {"seconds": args.seconds, "workloads": {**kept, **measured}}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
