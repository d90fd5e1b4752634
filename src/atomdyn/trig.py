"""Trigonometric polynomials and finite-window Cesaro averaging.

A trigonometric polynomial sum_k c_k e^{i p_k x} is an atomic vector of
:mod:`atomdyn.atoms` read as a function of x: the atom (p, c) is the wave
c e^{ipx}.  Under the window average (1/2X) int_{-X}^{X} conj(u) v dx the
inner product tends, as X -> infinity, to the Kronecker rule: distinct
frequencies are orthogonal, equal frequencies contribute conj(c_u) c_v.
That limit is the counting-measure inner product of the atoms, so the
analytic routine is :func:`atomdyn.atoms.inner` and the Fourier
identification is a relabeling.  The numeric routine evaluates the
finite-window average by composite trapezoid quadrature, which converges
at rate O(1/X).  numpy's pairwise summation tree pulls the trapezoid terms
one run of nodes at a time, so memory is O(run) at any node count and the
bits are those of the full-array rule.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .atoms import AtomicVector, Record, pairwise_sum


def pointwise(u: AtomicVector, x: np.ndarray) -> np.ndarray:
    """Values of sum_k c_k e^{i p_k x} on an array of sample points."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=complex)
    for t in u:
        # e * c at every length: numpy rounds c * e, and an in-place product on
        # one element, differently from e * c, and elides c * e into e *= c
        # from 16384 points, so either of those would make bits depend on length
        out += np.exp(1j * t.p * x) * t.c
    return out


class CesaroQuadratureConfig(Record):
    """Finite averaging window [-X, X] with a fixed trapezoid node count."""

    _fields = ("window", "steps")

    def __init__(self, window: float, steps: int):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "steps", steps)
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer: {steps!r}")
        if not (math.isfinite(window) and window > 0):
            raise ValueError(f"window must be finite and positive: {window!r}")
        if steps < 2:
            raise ValueError(f"steps must be at least 2: {steps!r}")
        if not (math.isfinite(2.0 * window) and 2.0 * window / (steps - 1) >= sys.float_info.min):
            raise ValueError(f"window {window!r} on {steps!r} nodes: 2*window must be finite and "
                             f"the node spacing at least {sys.float_info.min!r}")
        if steps > 2**53:
            raise ValueError(f"steps must be at most 2**53, past which node indices are not "
                             f"exact floats: {steps!r}")


def default_steps(window: float, max_gap: float) -> int:
    """Node count resolving the fastest oscillation: >= 20 nodes per period."""
    nodes = 40.0 * window * max_gap / (2.0 * math.pi)
    if not nodes <= 2**53:
        raise ValueError(f"the node count {nodes:.4g} for window {window!r} and gap {max_gap!r} "
                         "is not a number up to 2**53")
    return max(64, math.ceil(nodes))


def auto_config(window: float, u: AtomicVector, v: AtomicVector) -> CesaroQuadratureConfig:
    freqs = [t.p for t in u] + [t.p for t in v]
    max_gap = max((abs(a - b) for a in freqs for b in freqs), default=1.0)
    return CesaroQuadratureConfig(window, default_steps(window, max(max_gap, 1.0)))


def _window_average(values, cfg: CesaroQuadratureConfig):
    """(1/2X) int_{-X}^{X} values(x) dx by the trapezoid rule on cfg.steps nodes.

    The nodes are np.linspace(-X, X, steps) element for element (the config
    rules out its zero-step branch), and the terms and their one pairwise sum
    are np.trapezoid's, so the bits are the full-array rule's; the sum pulls
    the terms in runs, and values(x) sees the nodes of one run at a time.
    """
    X, n = float(cfg.window), cfg.steps
    step = 2.0 * X / (n - 1)

    def terms(k0, k1):
        """The trapezoid terms k0 .. k1 - 1, on nodes k0 .. k1."""
        x = np.arange(k0, k1 + 1) * step - X
        if k1 == n - 1:
            x[-1] = X
        f = values(x)
        return (x[1:] - x[:-1]) * (f[1:] + f[:-1]) / 2.0

    return pairwise_sum(n - 1, terms) / (2.0 * X)


def cesaro_inner_numeric(
    u: AtomicVector, v: AtomicVector, cfg: CesaroQuadratureConfig
) -> complex:
    """Finite-window average (1/2X) int_{-X}^{X} conj(u) v dx by trapezoid."""
    return complex(_window_average(lambda x: np.conj(pointwise(u, x)) * pointwise(v, x), cfg))


def modulation_gap_numeric(s: float, p: float, cfg: CesaroQuadratureConfig) -> float:
    """Window average of |e^{ist} - 1|^2: squared norm gap of a modulation step.

    The value is independent of the carrier frequency p (the integrand never
    involves it); p is accepted to mirror the gap ||M_{t+s} f_p - M_t f_p||^2
    being probed.  Exact antiderivative: 2 - 2 sin(sX)/(sX).
    """
    if s == 0:
        raise ValueError("gap is probed at a non-zero step s")
    return float(_window_average(lambda x: np.abs(np.exp(1j * s * x) - 1.0) ** 2, cfg))


def modulation_gap_exact(s: float, window: float) -> float:
    """Closed-form window average of |e^{ist} - 1|^2 (quadrature oracle)."""
    if s == 0:
        raise ValueError("gap is probed at a non-zero step s")
    return 2.0 - 2.0 * math.sin(s * window) / (s * window)

