"""Reference results the benchmark computes itself, and the checks against them.

Nothing here calls into atomdyn: vectors are plain ``{frequency: amplitude}``
dicts, multipliers are plain Python functions and laws are small tuples
("gaussian", D), ("cauchy", gamma), ("uniform", a, b), ("rademacher",) and
("mixture", D) -- the last one is 1/2 Rademacher + 1/2 Gaussian(D).  Every
``check_*`` function returns ``None`` when the result is accepted and a short
reason string when it is rejected.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Tolerances.  EXACT checks use ==; the rest are absolute after scaling.
WEYL_TOL = 1e-12
VECTOR_TOL = 1e-12  # relative to the largest reference amplitude
VALUE_TOL = 1e-9  # expectations of unit states (values of modulus <= ~1)
MATRIX_TOL = 1e-12
MC_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# Sparse vectors as dicts


def merged(pairs):
    """make_vector semantics: sum amplitudes per bit-identical frequency, drop zeros."""
    acc = {}
    for p, c in pairs:
        p = float(p)
        acc[p] = acc.get(p, 0j) + complex(c)
    return {p: c for p, c in acc.items() if c != 0}


def shifted(vec, h):
    """S_h: the atom at p moves to p - h."""
    return merged((p - h, c) for p, c in vec.items())


def inner(u, v):
    """Conjugate-linear in the first argument, over bit-identical frequencies."""
    return sum((u[p].conjugate() * v[p] for p in sorted(u) if p in v), 0j)


def norm(u):
    return math.sqrt(sum(abs(c) ** 2 for c in u.values()))


def apply_terms(terms, vec):
    """sum_j c_j M_{f_j} S_{a_j} vec for terms (c, f, a) with plain callables f."""
    out = {}
    for c, f, a in terms:
        for p, amp in vec.items():
            q = p - a
            out[q] = out.get(q, 0j) + c * f(q) * amp
    return out


def apply_adjoint_terms(terms, vec):
    """(sum_j c_j M_{f_j} S_{a_j})* vec: multiply by conj(c f(p)), then move p -> p + a."""
    out = {}
    for c, f, a in terms:
        for p, amp in vec.items():
            q = p + a
            out[q] = out.get(q, 0j) + (c * f(p)).conjugate() * amp
    return out


def wave(b):
    return lambda x: cmath.exp(1j * b * x)


def indicator(lo, hi):
    return lambda x: 1.0 + 0j if lo <= x <= hi else 0j


def const(z):
    return lambda x: z


def one(x):
    return 1.0 + 0j


# ---------------------------------------------------------------------------
# Laws


def chi(law, x):
    """Characteristic function E e^{i x xi}."""
    kind = law[0]
    if kind == "gaussian":
        return complex(math.exp(-0.5 * law[1] * x * x))
    if kind == "cauchy":
        return complex(math.exp(-law[1] * abs(x)))
    if kind == "uniform":
        a, b = law[1], law[2]
        if x == 0:
            return 1.0 + 0j
        return (cmath.exp(1j * x * b) - cmath.exp(1j * x * a)) / (1j * x * (b - a))
    if kind == "rademacher":
        return complex(math.cos(x))
    if kind == "mixture":
        return 0.5 * math.cos(x) + 0.5 * chi(("gaussian", law[1]), x)
    raise ValueError(f"unknown law {law!r}")


def atoms(law):
    """(location, probability) pairs of the discrete part."""
    if law[0] == "rademacher":
        return ((-1.0, 0.5), (1.0, 0.5))
    if law[0] == "mixture":
        return ((-1.0, 0.25), (1.0, 0.25))
    return ()


def continuous(law):
    """(weight, law) of the continuous part, or None."""
    if law[0] == "rademacher":
        return None
    if law[0] == "mixture":
        return 0.5, ("gaussian", law[1])
    return 1.0, law


def cdf(law, x):
    kind = law[0]
    if kind == "gaussian":
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * law[1])))
    if kind == "cauchy":
        return 0.5 + math.atan(x / law[1]) / math.pi
    if kind == "uniform":
        a, b = law[1], law[2]
        return min(1.0, max(0.0, (x - a) / (b - a)))
    raise ValueError(f"no cdf for {law!r}")


def expect_indicator(law, lo, hi, x):
    """E 1[lo <= xi - x <= hi]."""
    total = sum(pr * (1.0 if lo <= loc - x <= hi else 0.0) for loc, pr in atoms(law))
    cont = continuous(law)
    if cont:
        w, d = cont
        total += w * (cdf(d, hi + x) - cdf(d, lo + x))
    return complex(total)


def expect_wave(law, b, x):
    """E e^{ib(xi - x)} = e^{-ibx} chi(b)."""
    return cmath.exp(-1j * b * x) * chi(law, b)


# ---------------------------------------------------------------------------
# Checks


def check_close(got, want, tol):
    err = abs(complex(got) - complex(want))
    if not err <= tol:  # also rejects nan
        return f"|got - want| = {err:.3g} > {tol:.3g}"
    return None


def check_exact(got, want):
    if got != want:
        return f"got {got!r}, want exactly {want!r}"
    return None


def check_vector(got, want, tol=VECTOR_TOL):
    """Same atoms (bit-identical frequencies) and amplitudes within tol * scale."""
    scale = max([1.0] + [abs(c) for c in want.values()])
    worst = 0.0
    for p in set(got) | set(want):
        worst = max(worst, abs(got.get(p, 0j) - want.get(p, 0j)))
    if not worst <= tol * scale:
        return f"max amplitude error {worst:.3g} > {tol * scale:.3g}"
    return None


def check_weyl(residual):
    if not residual <= WEYL_TOL:
        return f"Weyl residual {residual!r} > {WEYL_TOL}"
    return None


def check_mc(estimate, stderr, want):
    """Monte Carlo value within MC_SIGMAS standard errors of the exact value."""
    err = abs(complex(estimate) - complex(want))
    bound = MC_SIGMAS * stderr + 1e-12
    if not err <= bound:
        return f"MC error {err:.3g} > {MC_SIGMAS:g} stderr ({bound:.3g})"
    return None


def check_matrix(got, want, tol=MATRIX_TOL):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"matrix shape {got.shape}, want {want.shape}"
    worst = float(np.max(np.abs(got - want), initial=0.0))
    if not worst <= tol:
        return f"max entry error {worst:.3g} > {tol:.3g}"
    return None


def check_exit(code):
    if code != 0:
        return f"exit code {code}, want 0"
    return None


def check_identical(a, b):
    if a is None or a != b:
        return "reports missing, or different between workers=1 and workers=2"
    return None
