"""Paths, statistics and the pass/fail ledger shared by the benchmark's processes."""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "atomdyn"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("cli-sweeps", "sparse-large", "state-eval")
TAIL_BEYOND = 10  # task_s.tail keeps at least this many samples above it


def n_cycles(mod, seconds: int) -> int:
    """Cycles in a run: the work that takes about `seconds` at seed speed.

    A run does a fixed amount of work, not a fixed amount of time, so every
    run of a seed measures the same tasks and the order statistics sit at the
    same ranks however fast the host happens to be.
    """
    return max(1, round(seconds / mod.CYCLE_SECONDS))


# The host shares its cores with other tenants, and its speed drifts by up to
# a factor of two over seconds to hours.  The in-process workloads therefore
# time a fixed calibration kernel between stretches of work and report task
# times in reference seconds: each stretch's measured seconds *
# CALIBRATION_REF_S / (the mean of the kernel's times just before and after
# it).  The kernel does the kinds of work those tasks do -- dict and complex
# arithmetic in the interpreter, numpy on small arrays -- and touches nothing
# of atomdyn, so a faster package shows in full.
CALIBRATION_REF_S = 0.012  # the kernel's median time on a 2-core Xeon host
# A stretch ends after the operation that brings it to this many measured
# seconds, or at the end of a task: a long task is sampled inside, at
# operation boundaries, since the host's speed changes within a second.
STRETCH_S = 0.1


def calibration_kernel():
    """About 12 ms of work on a 2-core Xeon host: long enough to average over
    the host's millisecond-scale flips between full and shared speed."""
    total = 0j
    for _ in range(3):
        amplitudes = {}
        for i in range(3000):
            p = (i * 7919 % 2048) * 0.125
            amplitudes[p] = amplitudes.get(p, 0j) + complex(i, 1.0)
        for p in sorted(amplitudes):
            total += amplitudes[p].conjugate() * amplitudes[p] * p
        x = np.linspace(-4.0, 4.0, 8192)
        m = np.outer(x[:24], x[-24:]) + 1j * np.eye(24)
        total += complex(np.exp(1j * x).sum()) + float(np.linalg.eigvalsh(m @ m.conj().T)[-1])
    return total


class HostClock:
    """Times work in reference seconds against a fixed probe.

    The probe's wall times are kept in `samples`; its time on a 2-core Xeon
    host is `reference_s`.
    """

    def __init__(self, probe=calibration_kernel, reference_s=CALIBRATION_REF_S):
        self.probe = probe
        self.reference_s = reference_s
        self.samples = []

    def sample(self):
        t0 = perf_counter()
        self.probe()
        self.samples.append(perf_counter() - t0)

    def scale(self, seconds):
        """`seconds` measured since the last sample, in reference seconds; samples again."""
        before = self.samples[-1]
        self.sample()
        return seconds * self.reference_s / (0.5 * (before + self.samples[-1]))

    def run_ops(self, ops):
        """run_ops(ops), timed one operation at a time, in stretches of STRETCH_S.

        Returns the outcomes and their measured and reference seconds; the
        kernel runs first if it has not run yet, and after each stretch.
        """
        if not self.samples:
            self.sample()
        outcomes = []
        measured = reference = stretch = 0.0
        for i, (name, thunk, check) in enumerate(ops):
            t0 = perf_counter()
            value, exc = _attempt(thunk)
            stretch += perf_counter() - t0
            outcomes.append((name, value, exc, check))
            if stretch >= STRETCH_S or i == len(ops) - 1:
                measured += stretch
                reference += self.scale(stretch)
                stretch = 0.0
        return outcomes, measured, reference


def child_env() -> dict:
    """Environment for child interpreters: the package is imported from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(xs):
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples it
    falls back to the maximum.
    """
    s = sorted(xs)
    n = len(s)
    idx = max(0, n - 1 - TAIL_BEYOND)
    if n <= TAIL_BEYOND:
        idx = n - 1
    return s[idx], 100.0 * (idx + 1) / n, n


class Ledger:
    """Counts attempted and failed operations, by check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}
        self.reasons = {}

    def record(self, name: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed[name] = self.failed.get(name, 0) + 1
            self.reasons.setdefault(name, str(reason)[:200])

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "reasons": self.reasons}

    def merge(self, doc: dict) -> None:
        self.attempted += doc["attempted"]
        for name, count in doc["failed"].items():
            self.failed[name] = self.failed.get(name, 0) + count
        for name, reason in doc["reasons"].items():
            self.reasons.setdefault(name, reason)


def run_metadata() -> dict:
    """Machine, versions and size of the code under test."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = sum(
        len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "src_lines": lines,
        "runtime_deps": _runtime_deps(),
        **_versions(),
    }


def _runtime_deps():
    path = ROOT / "pyproject.toml"
    if not path.exists():
        return None
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return None
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    return len(doc.get("project", {}).get("dependencies", []))


def _versions() -> dict:
    import importlib.metadata as md

    out = {}
    for name in ("numpy", "scipy"):
        try:
            out[name] = md.version(name)
        except md.PackageNotFoundError:
            out[name] = None
    return out


def run_ops(ops):
    """Run (name, thunk, check) operations in order; keep each value or exception.

    Only this part of a task is timed.  A thunk that needs the value of an
    earlier one that raised fails too, so a raise counts against every
    operation it blocks.
    """
    return [(name, *_attempt(thunk), check) for name, thunk, check in ops]


def _attempt(thunk):
    try:
        return thunk(), None
    except Exception as exc:  # the library under test may raise anything
        return None, exc


def check_ops(outcomes, ledger: Ledger, prefix: str = "") -> None:
    """Record every operation: a raise or a rejected result is a failure."""
    for name, value, exc, check in outcomes:
        if exc is not None:
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            try:
                reason = check(value)
            except Exception as err:  # a broken result can break its oracle
                reason = f"oracle raised {type(err).__name__}: {err}"
        ledger.record(prefix + name, reason)
