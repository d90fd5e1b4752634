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
at rate O(1/X).
"""

from __future__ import annotations

import math

import numpy as np

from .atoms import AtomicVector, Record


def pointwise(u: AtomicVector, x: np.ndarray) -> np.ndarray:
    """Values of sum_k c_k e^{i p_k x} on an array of sample points."""
    out = np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    for t in u:
        out = out + t.c * np.exp(1j * t.p * np.asarray(x, dtype=float))
    return out


class CesaroQuadratureConfig(Record):
    """Finite averaging window [-X, X] with a fixed trapezoid node count."""

    _fields = ("window", "steps")

    def __init__(self, window: float, steps: int):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "steps", steps)
        if not (math.isfinite(window) and window > 0):
            raise ValueError(f"window must be finite and positive: {window!r}")
        if steps < 2:
            raise ValueError(f"steps must be at least 2: {steps!r}")


def default_steps(window: float, max_gap: float) -> int:
    """Node count resolving the fastest oscillation: >= 20 nodes per period."""
    return max(64, math.ceil(40.0 * window * max_gap / (2.0 * math.pi)))


def auto_config(window: float, u: AtomicVector, v: AtomicVector) -> CesaroQuadratureConfig:
    freqs = [t.p for t in u] + [t.p for t in v]
    max_gap = max((abs(a - b) for a in freqs for b in freqs), default=1.0)
    return CesaroQuadratureConfig(window, default_steps(window, max(max_gap, 1.0)))


def cesaro_inner_numeric(
    u: AtomicVector, v: AtomicVector, cfg: CesaroQuadratureConfig
) -> complex:
    """Finite-window average (1/2X) int_{-X}^{X} conj(u) v dx by trapezoid."""
    x = np.linspace(-cfg.window, cfg.window, cfg.steps)
    integrand = np.conj(pointwise(u, x)) * pointwise(v, x)
    return complex(np.trapezoid(integrand, x) / (2.0 * cfg.window))


def modulation_gap_numeric(s: float, p: float, cfg: CesaroQuadratureConfig) -> float:
    """Window average of |e^{ist} - 1|^2: squared norm gap of a modulation step.

    The value is independent of the carrier frequency p (the integrand never
    involves it); p is accepted to mirror the gap ||M_{t+s} f_p - M_t f_p||^2
    being probed.  Exact antiderivative: 2 - 2 sin(sX)/(sX).
    """
    if s == 0:
        raise ValueError("gap is probed at a non-zero step s")
    x = np.linspace(-cfg.window, cfg.window, cfg.steps)
    integrand = np.abs(np.exp(1j * s * x) - 1.0) ** 2
    return float(np.trapezoid(integrand, x) / (2.0 * cfg.window))


def modulation_gap_exact(s: float, window: float) -> float:
    """Closed-form window average of |e^{ist} - 1|^2 (quadrature oracle)."""
    if s == 0:
        raise ValueError("gap is probed at a non-zero step s")
    return 2.0 - 2.0 * math.sin(s * window) / (s * window)

