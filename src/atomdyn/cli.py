"""Batch experiment harness.

Usage::

    atomdyn <command> [--config cfg.json] [--seed N] [--out report.csv]
                      [--format csv|json]

Commands: verify, chernoff, cesaro, walk-decay, semigroup, dephase.

Each ``run_<command>(config, seed)`` returns ``(rows, status)``: a
non-empty list of row dicts, whose keys in order are the report's columns,
and the exit status.  Reports embed the effective config, the seed, and the
package version, and are byte-identical for identical (config, seed): sweep
points run one after another and draw from pre-assigned Philox substreams
indexed by row.  A ``workers`` key is accepted for old configs, has no
effect and is left out of the report.  Wall-clock runtime, which includes
the imports of the command's own modules, goes to a ``<out>.meta.json``
sidecar (stderr when writing to stdout) so the report itself stays
reproducible.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 bad
configuration (including a ``--seed`` or ``ATOMDYN_SEED`` that is not an
integer in [0, 2**64), an ``--out`` path that cannot be written, a config
value the library rejects and a sample count too large for memory:
:func:`main` prints any ``ValueError`` or ``MemoryError`` of a command as
one ``error:`` line).

:func:`run` is the process entry point (``atomdyn`` and ``python -m
atomdyn.cli``); :func:`main` runs one command and leaves the process's
garbage collector alone, so tests and harnesses can call it in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__

# each command imports the modules it uses when it runs; these are for annotations
if TYPE_CHECKING:
    from .atoms import AtomicVector
    from .rand import ConvolutionFamily, Distribution

SEED_ENV = "ATOMDYN_SEED"


# ---------------------------------------------------------------------------
# Report plumbing


def render_csv(command: str, seed: int, config: dict, rows: Sequence[dict]) -> str:
    lines = [
        "# atomdyn report v1",
        f"# command={command}",
        f"# seed={seed}",
        f"# version={__version__}",
        f"# config={json.dumps(config, sort_keys=True)}",
        ",".join(rows[0]),
    ]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def render_json(command: str, seed: int, config: dict, rows: Sequence[dict]) -> str:
    doc = {
        "report_version": 1,
        "command": command,
        "seed": seed,
        "version": __version__,
        "config": config,
        "columns": list(rows[0]),
        "rows": rows,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(out: Optional[str], fmt: str, command: str, seed: int,
                 config: dict, rows, runtime_s: float) -> None:
    # the ignored workers key of old configs stays out of the report, so
    # its bytes do not depend on it
    config = {k: v for k, v in config.items() if k != "workers"}
    text = (render_csv if fmt == "csv" else render_json)(command, seed, config, rows)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        with open(out + ".meta.json", "w") as fh:
            json.dump({"runtime_s": runtime_s}, fh)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        print(f"runtime_s={runtime_s:.3f}", file=sys.stderr)


_DOMAINS = {
    "finite": lambda x: True,
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "non-zero": lambda x: x != 0,
}


def _number(x, name: str, kind: type = float, domain: str = "finite"):
    """The config value ``x`` as a number of ``kind``.

    Raises ValueError when ``x`` is not a finite number, not integral when
    ``kind`` is int, or outside ``domain`` (a key of ``_DOMAINS``).
    """
    try:
        ok = (isinstance(x, (int, float)) and not isinstance(x, bool)
              and math.isfinite(x) and (kind is float or x == int(x))
              and _DOMAINS[domain](x))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a {domain} {kind.__name__}, got {x!r}")
    return kind(x)


def _number_list(config: dict, key: str, default: list, kind: type = float,
                 domain: str = "finite") -> list:
    """The list field ``key`` (``default`` when absent) as numbers of ``kind``.

    Raises ValueError for a non-list, an empty list and an entry that
    :func:`_number` rejects.
    """
    values = config.get(key, default)
    if not isinstance(values, list) or not values:
        raise ValueError(f"{key} must be a non-empty list of numbers, got {values!r}")
    return [_number(x, f"each {key} entry", kind, domain) for x in values]


def _load_distribution(config: dict, default: dict) -> Distribution:
    from .rand import distribution_from_json
    doc = config.get("distribution", default)
    try:
        if isinstance(doc, str):
            with open(doc) as fh:
                doc = json.load(fh)
        return distribution_from_json(doc)
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad distribution document: {exc}") from exc


def _family(config: dict) -> ConvolutionFamily:
    from .rand import ConvolutionFamily
    return ConvolutionFamily(config.get("family", "gaussian"))


# ---------------------------------------------------------------------------
# verify


def _random_vector(gen, max_atoms=6, span=10.0) -> AtomicVector:
    from .atoms import make_vector
    k = int(gen.integers(1, max_atoms + 1))
    ps = gen.uniform(-span, span, k)
    cs = gen.normal(size=k) + 1j * gen.normal(size=k)
    return make_vector(list(zip(ps, cs)))


def _random_density(gen, m: int):
    """a a* / tr(a a*) for a complex Gaussian a, Hermitian bit for bit under any BLAS kernel."""
    from .atoms import cmul, fold
    from .channels import NormalState
    a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
    rho = fold(cmul(a[:, i, None], a[None, :, i].conj()) for i in range(m))
    rho = (rho.view(float) / fold(rho.diagonal().real)).view(complex)
    support = tuple(np.sort(gen.uniform(-5.0, 5.0, m)))
    return NormalState(support, rho)


DEFAULT_TOLERANCES = {
    "weyl": 1e-12,
    "fourier_isometry": 0.0,
    "isometry": 1e-14,
    "dephase_hermitian": 1e-12,
    "dephase_trace": 1e-12,
    "dephase_psd": 1e-10,
    "semigroup_T": 1e-10,
    "semigroup_Phi": 1e-12,
    "shift_invariance": 0.0,
    "singularity": 0.0,
}


def run_verify(config: dict, seed: int) -> Tuple[List[dict], int]:
    from .atoms import apply_mod, fold, inner, make_vector, norm
    from .algebra import AlgebraElement, apply_shift, weyl_residual
    from .rand import Gaussian, SeededRng
    from .channels import PureState, averaged_Phi, averaged_T, evaluate, projector_value
    overrides = config.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ValueError(f"tolerances must be an object, got {overrides!r}")
    unknown = sorted(set(overrides) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ValueError(f"unknown tolerances {unknown}, not among {sorted(DEFAULT_TOLERANCES)}")
    tols = dict(DEFAULT_TOLERANCES)
    tols.update({k: _number(v, f"tolerance {k!r}", domain="non-negative")
                 for k, v in overrides.items()})
    rng = SeededRng(seed)
    rows = []

    def check(name: str, residual: float):
        tol = tols[name]
        rows.append({"check": name, "passed": residual <= tol,
                     "residual": float(residual), "tolerance": tol})

    gen = rng.stream(0)
    res = 0.0
    for _ in range(200):
        u = _random_vector(gen)
        h, a = gen.uniform(-5, 5, 2)
        res = max(res, weyl_residual(float(h), float(a), u))
    check("weyl", res)

    gen = rng.stream(1)
    res = 0.0
    for _ in range(200):
        u = make_vector(
            [(p, complex(c, s)) for p, c, s in
             zip(gen.uniform(-5, 5, 3), gen.normal(size=3), gen.normal(size=3))]
        )
        v = make_vector(
            [(p, complex(c, s)) for p, c, s in
             zip(list(gen.uniform(-5, 5, 2)) + [u.atoms[0].p if u.atoms else 0.0],
                 gen.normal(size=3), gen.normal(size=3))]
        )
        # the Kronecker rule, written out from the amplitudes of v
        kron = fold((a.c.conjugate() * v.amplitude(a.p) for a in u), 0j)
        res = max(res, abs(inner(u, v) - kron))
    check("fourier_isometry", res)

    gen = rng.stream(2)
    res = 0.0
    for _ in range(200):
        u = _random_vector(gen)
        h = float(gen.uniform(-5, 5))
        n0 = norm(u)
        res = max(res, abs(norm(apply_shift(h, u)) - n0) / n0,
                  abs(norm(apply_mod(h, u)) - n0) / n0)
    check("isometry", res)

    gen = rng.stream(3)
    herm = tr = psd = 0.0
    for _ in range(100):
        m = int(gen.integers(2, 7))
        s = _random_density(gen, m)
        out = averaged_Phi(Gaussian(1.0), s)
        herm = max(herm, float(np.max(np.abs(out.matrix - out.matrix.conj().T))))
        tr = max(tr, abs(float(np.trace(out.matrix).real) - 1.0))
        psd = max(psd, max(0.0, -float(np.linalg.eigvalsh(out.matrix).min())))
    check("dephase_hermitian", herm)
    check("dephase_trace", tr)
    check("dephase_psd", psd)

    # the semigroup command's default sweep under both families
    sweep = [row for kind in ("gaussian", "cauchy")
             for row in run_semigroup({"family": kind}, seed)[0]]
    check("semigroup_T", max([0.0] + [row["residual_T"] for row in sweep]))
    check("semigroup_Phi", max([0.0] + [row["residual_Phi"] for row in sweep]))

    gen = rng.stream(4)
    res = 0.0
    for _ in range(100):
        u = _random_vector(gen)
        u = (1.0 / norm(u)) * u
        rho_p = PureState(u)
        a = float(gen.uniform(-3, 3))
        d = Gaussian(float(gen.uniform(0.5, 2.0)))
        A = AlgebraElement.shift(a)
        res = max(res, abs(evaluate(averaged_T(d, rho_p), A) - evaluate(rho_p, A)))
    check("shift_invariance", res)

    gen = rng.stream(5)
    res = 0.0
    for _ in range(50):
        u = _random_vector(gen)
        u = (1.0 / norm(u)) * u
        v = _random_vector(gen)
        v = (1.0 / norm(v)) * v
        avg = averaged_T(Gaussian(1.0), PureState(u))
        res = max(res, projector_value(avg, v))
        res = max(res, projector_value(avg, v, method="mc", mc_samples=200,
                                       gen=rng.stream(100)))
    check("singularity", res)

    return rows, 0 if all(r["passed"] for r in rows) else 1


# ---------------------------------------------------------------------------
# chernoff


def run_chernoff(config: dict, seed: int) -> Tuple[List[dict], int]:
    from .rand import chernoff_error
    d = _load_distribution(config, {"kind": "rademacher"})
    t = _number(config.get("t", 1.0), "t")
    probes = _number_list(config, "probes", [0.5, 1.0, 2.0, 3.0])
    n_list = _number_list(config, "n_list", [10, 100, 1000, 10000], int, "positive")

    err_by_n = {n: chernoff_error(d, t, n, probes) for n in n_list}
    rows = []
    for n in n_list:
        rate = None
        if 2 * n in err_by_n and err_by_n[2 * n] > 0 and err_by_n[n] > 0:
            rate = math.log2(err_by_n[n] / err_by_n[2 * n])
        rows.append({"n": n, "sup_error": err_by_n[n], "rate_estimate": rate})
    return rows, 0


# ---------------------------------------------------------------------------
# cesaro


def run_cesaro(config: dict, seed: int) -> Tuple[List[dict], int]:
    from .atoms import inner, unit_atom
    from .trig import cesaro_inner, modulation_gap_exact
    dp = _number(config.get("delta_p", 1.0), "delta_p")
    x_list = _number_list(config, "X_list", [1e2, 1e3, 1e4], float, "positive")
    gap_s = _number(config.get("gap_s", 1.0), "gap_s")
    u = unit_atom(0.0)
    v = unit_atom(dp)
    kron = inner(u, v)

    def point(X: float) -> dict:
        return {"X": X, "abs_error": abs(cesaro_inner(u, v, X) - kron),
                "mod_gap": modulation_gap_exact(gap_s, X)}

    return [point(X) for X in x_list], 0


# ---------------------------------------------------------------------------
# walk-decay


def run_walk_decay(config: dict, seed: int) -> Tuple[List[dict], int]:
    from .atoms import deserialize, unit_atom
    from .algebra import shift_overlaps, wave
    from .rand import McEstimate, SeededRng
    d = _load_distribution(config, {"kind": "gaussian", "D": 1.0})
    if d.lebesgue_split()[0]:
        print(
            "warning: the zero-mean-shift hypothesis needs a law without a "
            "discrete part; running anyway",
            file=sys.stderr,
        )
    n_list = _number_list(config, "N_list", [100, 1000, 10000], int, "positive")
    probe_p = _number(config.get("probe_p", 1.0), "probe_p")
    u_doc = config.get("u")
    v_doc = config.get("v")
    u = deserialize(json.dumps(u_doc)) if u_doc else unit_atom(0.0)
    v = deserialize(json.dumps(v_doc)) if v_doc else unit_atom(1.0)
    rng = SeededRng(seed)

    def point(i: int, n: int) -> dict:
        xs, idx = d.draw(rng.stream(i), n)
        # the phases are dropped before the overlaps exist, so a row never holds both
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives NaN, caught below
            mean = complex(wave(probe_p).at(xs, idx).mean())
        if not math.isfinite(abs(mean)):
            raise ValueError(f"the mean of e^(i probe_p xi) under {d!r} is not finite for "
                             f"probe_p = {probe_p!r}: a phase probe_p xi overflows")
        # under an atom law, one overlap per location, gathered by the estimate
        est = McEstimate.of(shift_overlaps(u, v, xs), idx)
        return {
            "N": n,
            "shift_overlap_abs": abs(est.value),
            "shift_stderr": est.stderr,
            "mod_mean_error": abs(mean - d.chi(probe_p)),
            "clt_band": 4.0 / math.sqrt(n),
        }

    return [point(i, n) for i, n in enumerate(n_list)], 0


# ---------------------------------------------------------------------------
# semigroup


def run_semigroup(config: dict, seed: int) -> Tuple[List[dict], int]:
    """Defects of T(t) T(s) = T(t + s) and Phi(t) Phi(s) = Phi(t + s) on atoms
    at 0 and 1 with equal weights, as a pure and a normal state."""
    from .atoms import make_vector
    from .algebra import AlgebraElement, indicator
    from .channels import NormalState, PureState, evaluate, semigroup_Phi, semigroup_T
    fam = _family(config)
    t_list = _number_list(config, "t_list", [0.0, 0.1, 0.5, 1.0, 2.0], float, "non-negative")
    s_list = _number_list(config, "s_list", t_list, float, "non-negative")
    pure = PureState(make_vector([(0.0, 2 ** -0.5), (1.0, 2 ** -0.5)]))
    density = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    probes = (AlgebraElement.shift(1.0), AlgebraElement.mult(indicator(0.0, 1.0)))

    def point(t: float, s: float) -> dict:
        # T(t + s) first: a sum past the float range fails as a family parameter
        rhs = semigroup_T(fam, t + s, pure)
        lhs = semigroup_T(fam, t, semigroup_T(fam, s, pure))
        res_t = max(abs(evaluate(lhs, A) - evaluate(rhs, A)) for A in probes)
        m1 = semigroup_Phi(fam, t, semigroup_Phi(fam, s, density)).matrix
        m2 = semigroup_Phi(fam, t + s, density).matrix
        return {"t": t, "s": s, "residual_T": res_t, "residual_Phi": float(np.max(np.abs(m1 - m2)))}

    return [point(t, s) for t in t_list for s in s_list], 0


# ---------------------------------------------------------------------------
# dephase


def run_dephase(config: dict, seed: int) -> Tuple[List[dict], int]:
    from .channels import NormalState, semigroup_Phi
    fam = _family(config)
    # the pair of atoms at 0 and delta_p needs delta_p != 0
    dp = _number(config.get("delta_p", 1.0), "delta_p", domain="non-zero")
    t_list = _number_list(config, "t_list", [0.0, 0.5, 1.0, 2.0, 4.0], float, "non-negative")
    rho = NormalState((0.0, dp), np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

    def point(t: float) -> dict:
        out = semigroup_Phi(fam, t, rho)
        off = abs(complex(out.matrix[0, 1]))
        analytic = 0.5 * abs(fam.at(t).chi(dp))
        return {
            "t": t,
            "delta_p": dp,
            "offdiag_abs": off,
            "analytic": analytic,
            "abs_error": abs(off - analytic),
        }

    return [point(t) for t in t_list], 0


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "verify": run_verify,
    "chernoff": run_chernoff,
    "cesaro": run_cesaro,
    "walk-decay": run_walk_decay,
    "semigroup": run_semigroup,
    "dephase": run_dephase,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomdyn", description="verification and sweep harness"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--seed", type=int, help=f"RNG seed in [0, 2**64) (default: ${SEED_ENV} or 0)",
    )
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    seed = args.seed
    if seed is None:
        env_seed = os.environ.get(SEED_ENV, "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"error: {SEED_ENV} must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
    if not 0 <= seed < 1 << 64:  # the first word of the Philox key
        where = SEED_ENV if args.seed is None else "--seed"
        print(f"error: {where} must be in [0, 2**64), got {seed}", file=sys.stderr)
        return 2
    # a missing report directory fails before the command runs, not after
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"error: cannot write report: no directory for {args.out!r}",
              file=sys.stderr)
        return 2

    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2

    started = time.monotonic()
    try:
        rows, status = COMMANDS[args.command](config, seed)
    except (ValueError, MemoryError) as exc:  # a rejected config value, or N beyond memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runtime = time.monotonic() - started
    try:
        write_report(args.out, args.format, args.command, seed, config, rows, runtime)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return status


def run() -> int:
    """Process entry point: freeze the import-time heap, then :func:`main`.

    numpy and this module are imported by now, so ``gc.freeze()`` moves the
    objects they built (about 21k) to the permanent generation; the full
    collections during the command and at interpreter shutdown skip them.
    The command's own modules load later (140-570 objects, and about 900
    for ``numpy.random``).  atexit handlers, stream flushes and destructors
    still run.  Only a process entry point may do this, since it changes
    the collector of the whole process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
