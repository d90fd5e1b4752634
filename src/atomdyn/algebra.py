"""Operators on atomic vectors: shifts, modulations, multiplications.

The executable algebra consists of finite sums  sum_j c_j M_{f_j} S_{a_j}
where S_a shifts every atom frequency by -a, M_f multiplies the amplitude
at frequency p by f(p), and c_j is a scalar weight.  Products are put back
into this normal form with the exchange rule  S_a M_f = M_{f(.+a)} S_a,
which is the commutation relation S_h M_a = e^{iah} M_a S_h in the special
case f(x) = e^{iax}.

The multipliers of the normal form are data: a :class:`Multiplier`
(c, a, lo, hi) is y -> c e^{iay} on [lo, hi] and 0 elsewhere.  Constants,
waves and interval indicators are instances, and the family is closed under
shifts (c gains e^{iah}, the interval moves), conjugation and products
(phases multiply, frequencies add, intervals intersect; an empty
intersection is the zero multiplier).  The algebra is closed: every element
is in normal form, which keeps c = 1 in every multiplier, moving the
constant into the term weight, merges terms with equal (multiplier, shift)
by value, and holds finite weights, frequencies and shifts.  Elements keep
their terms as data rows and build Multiplier objects only when asked.  Multipliers are evaluated at the finitely many atom
frequencies of the argument vector, or on whole arrays with ``at``.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Iterable, Optional, Tuple

import numpy as np

from .atoms import (AtomicVector, Record, apply_mod, canonical, check_phase, cmul, inner, match,
                    merge, named_overflow, norm)


# ---------------------------------------------------------------------------
# Unitary group actions (the modulation M_a is ``atoms.apply_mod``)


def apply_shift(h: float, u: AtomicVector) -> AtomicVector:
    """S_h: the atom at p moves to p - h, amplitude unchanged.

    Subtraction is monotone, so the atoms stay sorted; it is not injective,
    so neighbours can land on one frequency, and those are merged, as
    :func:`~atomdyn.atoms.merge` names a sum past the float range.  A shift
    that carries an atom past the largest float raises ValueError.
    """
    if not math.isfinite(h):
        raise ValueError(f"non-finite shift: {h!r}")
    if h == 0:
        return u
    check_shifts(u.freqs, float(h), float(h))
    q = u.freqs - h
    if np.count_nonzero(q[1:] == q[:-1]):
        return merge(q, u.amps.copy())
    return AtomicVector(q, u.amps)


def check_shifts(f: np.ndarray, low: float, high: float) -> None:
    """Raise ValueError if a shift in [low, high] moves a frequency of f to +-inf.

    The frequencies f are sorted and subtraction is monotone, so the end
    frequencies and the end shifts decide; the test runs on Python floats,
    which overflow without a warning.
    """
    if f.size and (math.isinf(f.item(-1) - low) or math.isinf(f.item(0) - high)):
        h = low if math.isinf(f.item(-1) - low) else high
        raise ValueError(f"shift {h!r} moves an atom of the vector out of the float range")


def check_draws(xs: np.ndarray, *fs: np.ndarray) -> None:
    """Raise ValueError as ``shift_overlaps`` does on the shifts xs, for each f of fs in turn.

    A non-finite shift fails first, then a shift that moves a frequency of f
    out of the float range.
    """
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite shift")
    if xs.size:
        low, high = float(xs.min()), float(xs.max())
        for f in fs:
            check_shifts(f, low, high)


def check_wave(a: float, lo: float, hi: float, q: np.ndarray) -> None:
    """Raise ValueError as ``check_phase`` does if a phase a q overflows at a q inside [lo, hi];
    outside it the wave e^{iay} on [lo, hi] is 0 and takes none.  Used to diagnose."""
    q = q[(lo <= q) & (q <= hi)]
    if q.size:
        check_phase(a, np.array([q.min(), q.max()]))


_RUN = 1 << 13  # shifts that shift_overlaps takes at once


def shift_overlaps(u: AtomicVector, v: AtomicVector, xs: np.ndarray) -> np.ndarray:
    """(S_x u, v) for every x of xs, as a complex array.

    The rule of ``inner(apply_shift(x, u), v)``, bit for bit: the atom of u
    at p meets v where p - x is bit-equal to a frequency of v, and the
    products conj(c_u) c_v, rounded by ``cmul`` as ``inner`` rounds them, add
    up in u's atom order.  Shifts at which two atoms of u land on one
    frequency merge them first, so those few are computed through
    ``apply_shift`` itself.  A shift that carries an atom of u past the
    largest float raises ValueError, as it does there; so does an overflow,
    which the sums meet with warnings off and the first shift whose value
    is not finite names through ``inner(apply_shift(x, u), v)``.
    """
    xs = np.asarray(xs, dtype=float)
    check_draws(xs, u.freqs)
    out = np.zeros(xs.shape, dtype=complex)
    if not len(u) or not len(v):
        return out
    # runs of _RUN shifts keep each atom's temporaries small at any len(xs)
    for k in range(0, len(xs), _RUN):
        x, o = xs[k:k + _RUN], out[k:k + _RUN]
        merged = np.zeros(x.shape, dtype=bool)
        prev = None
        with np.errstate(over="ignore", invalid="ignore"):
            for a in u:
                q = a.p - x
                idx, hit = match(v.freqs, q)
                o[hit] += cmul(a.c.conjugate(), v.amps[idx[hit]])
                if prev is not None:
                    merged |= prev == q
                prev = q
        for i in np.flatnonzero(merged):
            o[i] = inner(apply_shift(float(x[i]), u), v)
    ok = np.isfinite(out)
    if np.count_nonzero(ok) < ok.size:
        inner(apply_shift(float(xs.ravel()[ok.argmin()]), u), v)  # raises the named ValueError
    return out


def weyl_residual(h: float, a: float, u: AtomicVector) -> float:
    """Relative defect of S_h M_a u = e^{iah} M_a S_h u; zero in exact arithmetic."""
    nu = norm(u)
    if nu == 0:
        raise ValueError("residual is undefined on the zero vector")
    check_phase(a, np.array([h]))
    lhs = apply_shift(h, apply_mod(a, u))
    rhs = cmath.exp(1j * a * h) * apply_mod(a, apply_shift(h, u))
    return norm(lhs - rhs) / nu


def generator_apply(h: float, u: AtomicVector) -> AtomicVector:
    """Derivative of the shift group at t=0: the wave at p gains factor ihp; the phase
    h p is checked as in ``apply_mod``, the products under ``named_overflow``."""
    check_phase(h, u.freqs)
    return named_overflow(lambda: canonical(u.freqs, cmul(cmul(1j * h, u.freqs), u.amps)),
                          lambda p: f"i * {h!r} * {p!r} * {u.amplitude(p)!r}, the amplitude at "
                          f"frequency {p!r}, is not finite")


# ---------------------------------------------------------------------------
# Multipliers


class Multiplier(Record):
    """y -> c e^{iay} on the closed interval [lo, hi], and 0 outside it.

    lo = -inf and hi = inf is the whole line.  The family is closed under
    shifts, conjugation and products, so the exchange rule is exact
    arithmetic on (c, a, lo, hi), and equal data means the same function.
    """

    _fields = ("c", "a", "lo", "hi")

    def __init__(self, c: complex = 1 + 0j, a: float = 0.0,
                 lo: float = -math.inf, hi: float = math.inf):
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __call__(self, y: float) -> complex:
        if self.lo <= y <= self.hi:
            return self.c * cmath.exp(1j * self.a * y) if self.a else self.c
        return 0j

    def at(self, ys: np.ndarray, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """f on every point of ys[idx] (of ys when idx is None), as a new complex array.

        ys is not written.  Each value is taken once per point of ys and
        rounded as ``__call__`` rounds it: one libm exponential per point,
        times c by ``cmul`` (for c == 1 numpy's exact product gives the same
        bits).  Points outside [lo, hi] and NaN points give 0j; the mask that
        finds them is built only when an end is finite or ys holds a NaN.
        idx gathers last, so ``f.at(ys, idx)`` is ``f.at(ys)[idx]`` at any
        length.
        """
        ys = np.asarray(ys, dtype=float)
        if self.a:
            out = 1j * self.a * ys
            np.exp(out, out=out)
            if self.c == 1:
                out *= self.c
            else:
                out = cmul(self.c, out)
        else:
            out = np.full(ys.shape, self.c, dtype=complex)
        if self.lo > -math.inf or self.hi < math.inf or (ys.size and math.isnan(ys.min())):
            inside = self.lo <= ys
            inside &= ys <= self.hi
            out[~inside] = 0j
        return out if idx is None else out[idx]

    def shifted(self, h: float) -> "Multiplier":
        """y -> f(y + h): the wave gains the phase e^{iah}, the interval moves by -h."""
        if h == 0:
            return self
        return Multiplier(*_product(None, _data(self), h))

    def conjugate(self) -> "Multiplier":
        return Multiplier(*_product(None, _data(self), conj=True))

    def __mul__(self, other):
        return Multiplier(*_product(_data(self), _data(other)))


ONE = Multiplier()
ZERO = Multiplier(0j)


def constant(value: complex) -> Multiplier:
    return Multiplier(complex(value))


def wave(a: float) -> Multiplier:
    """y -> e^{iay}, the multiplier realizing M_a."""
    return Multiplier(a=float(a))


def indicator(lo: float, hi: float) -> Multiplier:
    """Indicator of the closed interval [lo, hi]."""
    if not (lo <= hi):
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return Multiplier(lo=float(lo), hi=float(hi))


# Multiplier data: a Multiplier as its tuple (c, a, lo, hi).  Elements hold
# their terms as rows (c, data, h), and products of terms are formed on data.


def _data(f: Multiplier) -> tuple:
    return f.c, f.a, f.lo, f.hi


def _product(f, g, h=0.0, conj=False):
    """The data of y -> f(y) g(y + h), with conj g in place of g if conj.

    f = None leaves the product out.  This is the exchange rule
    S_h M_g = M_{g(.+h)} S_h on data: the wave of g gains the phase e^{iah}
    and its interval moves by -h.  Then the product: constants multiply,
    frequencies add, intervals intersect, and an empty intersection is the
    zero multiplier.
    """
    gc, ga, glo, ghi = g
    if conj:
        gc, ga = gc.conjugate(), -ga
    if h:
        if ga:
            try:
                gc = gc * cmath.exp(1j * ga * h)
            except ValueError:
                raise ValueError(f"non-finite phase: frequency {ga!r} times shift {h!r}") from None
        glo, ghi = glo - h, ghi - h
    if f is None:
        return gc, ga, glo, ghi
    fc, fa, flo, fhi = f
    # max(flo, glo) and min(fhi, ghi), ties to f
    lo, hi = glo if glo > flo else flo, ghi if ghi < fhi else fhi
    if lo > hi:
        return _data(ZERO)
    return fc * gc, fa + ga, lo, hi


# ---------------------------------------------------------------------------
# Normal-form algebra elements


class AlgebraElement(Record):
    """Normal form sum_j c_j M_{f_j} S_{a_j} with at most one term per (f, a).

    Every multiplier f_j is a :class:`Multiplier` with c = 1: its constant
    factor lives in the term weight c_j.  The constructor rejects any other
    multiplier, an empty interval, a NaN interval end, a non-finite weight,
    frequency or shift, a weight 0 and a repeated (f, a); ``AlgebraElement.of``
    puts terms into this form, dropping zeros and merging repeats.  A convolution
    sum_j w_j S_{a_j} is ``AlgebraElement.of([(w_j, ONE, a_j), ...])``.
    The element stores ``rows`` (c_j, data of f_j, a_j), which compare and
    hash as the ``terms`` do; ``terms`` is built when first read.
    """

    _fields = ("rows",)

    def __init__(self, terms: Iterable[Tuple[complex, Multiplier, float]]):
        terms = tuple(terms)
        for _, f, _ in terms:
            if type(f) is not Multiplier or f.c != 1:
                raise ValueError(
                    f"term multiplier {f!r} is not in normal form, a Multiplier with "
                    "c = 1; build the element with AlgebraElement.of")
            if not f.lo <= f.hi:
                _check_ends(_data(f))
                raise ValueError(
                    f"term multiplier {f!r} has an empty interval, so it is zero; "
                    "AlgebraElement.of drops such terms")
        rows = tuple((complex(c), _data(f), float(a)) for c, f, a in terms)
        _check_finite(rows)
        if _normal_form(rows).rows != rows:
            raise ValueError("a repeated (f, a) pair or a weight 0: use AlgebraElement.of")
        object.__setattr__(self, "rows", rows)

    @cached_property
    def terms(self) -> Tuple[Tuple[complex, Multiplier, float], ...]:
        return tuple((c, Multiplier(*f), a) for c, f, a in self.rows)

    def __repr__(self) -> str:
        return f"AlgebraElement(terms={self.terms!r})"

    @staticmethod
    def of(terms: Iterable[Tuple[complex, Multiplier, float]]) -> "AlgebraElement":
        return _normal_form((complex(c), _data(f), float(a)) for c, f, a in terms)

    @staticmethod
    def identity() -> "AlgebraElement":
        return AlgebraElement.of([(1.0, ONE, 0.0)])

    @staticmethod
    def shift(h: float) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, ONE, h)])

    @staticmethod
    def mult(f: Multiplier) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, f, 0.0)])

    @staticmethod
    def modulation(a: float) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, wave(a), 0.0)])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return _normal_form(self.rows + other.rows)

    def __rmul__(self, alpha: complex) -> "AlgebraElement":
        return _normal_form([(complex(alpha * c), f, a) for c, f, a in self.rows])


def _normal_form(rows: Iterable[tuple]) -> AlgebraElement:
    """The element of rows (c, f, a): a complex c, f as multiplier data, a float a.

    A multiplier's constant moves into the weight, zero weights and
    multipliers with an empty interval drop out, and rows with equal (f, a)
    merge by value in first-seen order.  A NaN interval end, and a weight,
    frequency or shift of the result that is not finite, raise ValueError.
    """
    merged: dict = {}
    get = merged.get
    for c, f, a in rows:
        if not f[2] <= f[3]:
            _check_ends(f)
            continue
        if f[0] != 1:
            c, f = c * f[0], (1 + 0j, *f[1:])
        if c == 0:
            continue
        key = (f, a)
        total = get(key)
        merged[key] = c if total is None else total + c
    rows = tuple((c, f, a) for (f, a), c in merged.items() if c != 0)
    _check_finite(rows)
    A = object.__new__(AlgebraElement)
    object.__setattr__(A, "rows", rows)
    return A


def _check_ends(f: tuple) -> None:
    """Raise ValueError naming a NaN end of the interval of multiplier data f."""
    for name, x in (("lo", f[2]), ("hi", f[3])):
        if x != x:
            raise ValueError(f"NaN interval end {name} of multiplier data {f!r}")


def _check_finite(rows: tuple) -> None:
    """Raise ValueError naming the first weight, frequency or shift that is not finite.

    Their sum is finite when each one is; x - x is NaN for an infinite or NaN x.
    """
    total = 0j
    for c, f, a in rows:
        total += c + f[1] + a
    if total - total != 0:
        for c, f, a in rows:
            for name, x in (("weight", c), ("frequency", f[1]), ("shift", a)):
                if x - x != 0:
                    raise ValueError(f"non-finite {name}: {x!r}")


def apply_element(A: AlgebraElement, u: AtomicVector) -> AtomicVector:
    """sum_j c_j M_{f_j} S_{a_j} u, as the sum of the terms' vectors in term order.

    The terms form a table with one row per term and one column per atom of
    u: row j holds the frequencies q = p - a_j of S_{a_j} u and the values
    c_j f_j(q) c for its atoms (q, c).  Only the live entries are kept, row
    after row in term order, and merged once, so each frequency's amplitude
    adds the terms' values left to right, as ``out + c_j M_{f_j} S_{a_j} u``
    term by term does.  That fold keeps the frequency key of the term that
    brought an atom in until its sum cancels exactly; only -0.0 and 0.0 are
    distinct keys that compare equal, so the zero atom's key is set to match.

    Every multiplier has c = 1 (the normal form), so its values are e^{iaq}
    on [lo, hi] and 0 outside.  A row where atoms of u land on one
    frequency takes the amplitudes of ``apply_shift``, which merges them
    first, at the head of each merged run, and 0 at the rest of it.  An
    entry outside [lo, hi] or in the rest of a run is dead: its value is a
    zero, and a zero added to a sum that starts at 0j changes no bit of it,
    so dead entries are left out before the exponential, the weights and
    the merge.  As in the scalar rule, the exponential runs only on the
    rows with a wave, and the interval test only if some end is finite.  A
    shift past the largest float raises ValueError first; under
    ``named_overflow`` an amplitude that is not finite is named by ``check_wave`` on
    the wave rows in order, or else as term weights times amplitudes of u.
    """
    if not A.rows or not len(u):
        return AtomicVector()
    n = len(A.rows)
    # a shift by -0.0 leaves u as it is, as 0.0 does
    w, a, ia, lo, hi, h = zip(*[(w, a, 1j * a, lo, hi, s + 0.0)
                                for w, (_, a, lo, hi), s in A.rows])
    if any(h):
        check_shifts(u.freqs, float(min(h)), float(max(h)))
    wia = np.array(w + ia, dtype=complex)
    q = u.freqs - np.array(h, dtype=float)[:, None]
    waves = np.flatnonzero(wia[n:])

    def make():
        x, live = np.broadcast_to(u.amps, q.shape), None
        if max(lo) > -math.inf or min(hi) < math.inf:
            los, his = np.array((lo, hi), dtype=float)[:, :, None]
            live = los <= q
            live &= q <= his
        if any(h):
            landed = q[:, 1:] == q[:, :-1]
            if np.count_nonzero(landed):
                x = x.copy()
                if live is None:
                    live = np.ones(q.shape, dtype=bool)
                for j in np.flatnonzero(landed.any(axis=1)):
                    s = apply_shift(h[j], u)
                    at = q[j].searchsorted(s.freqs)
                    x[j, at] = s.amps
                    run_heads = np.zeros(len(u), dtype=bool)
                    run_heads[at] = True
                    live[j] &= run_heads
        # the live entries, row after row: qs their frequencies, ws their values
        if live is None:
            qs, ws, counts = q.ravel(), np.tile(u.amps, n), np.full(n, len(u))
        else:
            qs, ws, counts = q[live], x[live], np.count_nonzero(live, axis=1)
        if len(waves):
            # e^{iaq} on the live entries of the rows with a wave
            wq = (wia[n:] != 0).repeat(counts)
            e = wia[n + waves].repeat(counts[waves]) * qs[wq]
            ws[wq] = cmul(np.exp(e, out=e), ws[wq])
        ws = cmul(wia[:n].repeat(counts), ws)
        at_zero = qs == 0
        if np.count_nonzero(at_zero):
            hits = at_zero & (ws != 0)
            total = 0j
            for key, term in zip(qs[hits].tolist(), ws[hits].tolist()):
                if total == 0:
                    qs[at_zero] = key
                total += term
        return merge(qs, ws, named=False)

    def name(p):
        for j in waves.tolist():
            check_wave(a[j], lo[j], hi[j], q[j])
        terms = [f"{w[j]!r} * {c!r}" for j in range(n) if lo[j] <= p <= hi[j]
                 for c in u.amps[q[j] == p].tolist()]
        return (f"{' + '.join(terms)}, the amplitude of A u at frequency {p!r}, overflows the "
                "float range")
    return named_overflow(make, name)


def compose(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Product A B in normal form: (M_f S_a)(M_g S_b) = M_{f * g(.+a)} S_{a+b}."""
    return _normal_form(
        (c1 * c2, _product(f1, f2, a1), a1 + a2)
        for c1, f1, a1 in A.rows
        for c2, f2, a2 in B.rows
    )


def adjoint(A: AlgebraElement) -> AlgebraElement:
    """(c M_f S_a)* = conj(c) M_{conj f (.-a)} S_{-a}."""
    return _normal_form(
        (c.conjugate(), _product(None, f, -a, conj=True), -a) for c, f, a in A.rows
    )
