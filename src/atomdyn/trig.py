"""Trigonometric polynomials and finite-window Cesaro averaging.

A trigonometric polynomial sum_k c_k e^{i p_k x} is an atomic vector of
:mod:`atomdyn.atoms` read as a function of x: the atom (p, c) is the wave
c e^{ipx}.  Under the window average (1/2X) int_{-X}^{X} conj(u) v dx the
inner product tends, as X -> infinity, to the Kronecker rule: distinct
frequencies are orthogonal, equal frequencies contribute conj(c_u) c_v.
That limit is the counting-measure inner product of the atoms, so the
analytic routine is :func:`atomdyn.atoms.inner` and the Fourier
identification is a relabeling.  The finite-window average itself has a
closed form (Bohr's mean value): two waves whose frequencies differ by
delta average to sin(delta X) / (delta X), which tends to the Kronecker
rule at rate O(1/X).  It costs O(|u| |v|) at any window.
"""

from __future__ import annotations

import cmath
import math

from .atoms import AtomicVector


def _sinc(gap: float, window: float) -> float:
    """sin(gap X) / (gap X) for X = window, and 1.0 at gap X = 0.

    Raises ValueError, naming the window and the gap, when gap X overflows.
    """
    t = gap * window
    if not math.isfinite(t):
        raise ValueError(f"the phase gap * window is not finite for window {window!r} "
                         f"and gap {gap!r}")
    return math.sin(t) / t if t else 1.0


def cesaro_inner(u: AtomicVector, v: AtomicVector, window: float) -> complex:
    """Finite-window average (1/2X) int_{-X}^{X} conj(u) v dx in closed form.

    The sum over atoms (p, c) of u and (q, d) of v of conj(c) d sinc((q - p) X),
    with sinc(0) = 1, added in u's atom order and then v's.  X = window must
    be finite and positive.  A sum that is not finite raises ValueError.
    """
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and positive: {window!r}")
    total = 0j
    for a in u:
        for b in v:
            total += a.c.conjugate() * b.c * _sinc(b.p - a.p, window)
    if not cmath.isfinite(total):
        raise ValueError(f"the window average for window {window!r} is not finite: a product "
                         "conj(c) d of amplitudes of u and v, or their sum, overflows")
    return total


def modulation_gap_exact(s: float, window: float) -> float:
    """Window average of |e^{isx} - 1|^2: squared norm gap of a modulation step.

    The closed form 2 - 2 sin(sX)/(sX); it is independent of the carrier
    frequency p of the gap ||M_{t+s} f_p - M_t f_p||^2 being probed.
    """
    if s == 0:
        raise ValueError("gap is probed at a non-zero step s")
    return 2.0 - 2.0 * _sinc(s, window)
