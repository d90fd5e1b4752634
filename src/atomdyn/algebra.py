"""Operators on atomic vectors: shifts, modulations, multiplications.

The executable algebra consists of finite sums  sum_j c_j M_{f_j} S_{a_j}
where S_a shifts every atom frequency by -a, M_f multiplies the amplitude
at frequency p by f(p), and c_j is a scalar weight.  Products are put back
into this normal form with the exchange rule  S_a M_f = M_{f(.+a)} S_a,
which is the commutation relation S_h M_a = e^{iah} M_a S_h in the special
case f(x) = e^{iax}.

Bounded functions are identified by a textual tag: normal-form merging
compares tags, never function extensionality.  Functions are only ever
evaluated at the finitely many atom frequencies of the argument vector.
Constants, waves and interval indicators also carry their defining data
through shifts and conjugation, so expectations of them have closed forms
and they evaluate on whole arrays at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from .atoms import AtomicVector, inner, make_vector, norm, unit_atom
from .trig import TrigPolynomial, make_polynomial


# ---------------------------------------------------------------------------
# Unitary group actions


def apply_shift(h: float, u: AtomicVector) -> AtomicVector:
    """S_h: the atom at p moves to p - h, amplitude unchanged."""
    if not math.isfinite(h):
        raise ValueError(f"non-finite shift: {h!r}")
    return AtomicVector(
        tuple(sorted(
            (type(a)(a.p - h, a.c) for a in u), key=lambda a: a.p
        ))
    ) if h != 0 else u


def apply_mod(a: float, u: AtomicVector) -> AtomicVector:
    """M_a: the amplitude at p gains the phase e^{iap}."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite modulation: {a!r}")
    if a == 0:
        return u
    return AtomicVector(
        tuple(type(at)(at.p, cmath.exp(1j * a * at.p) * at.c) for at in u)
    )


def weyl_residual(h: float, a: float, u: AtomicVector) -> float:
    """Relative defect of S_h M_a u = e^{iah} M_a S_h u; zero in exact arithmetic."""
    nu = norm(u)
    if nu == 0:
        raise ValueError("residual is undefined on the zero vector")
    lhs = apply_shift(h, apply_mod(a, u))
    rhs = cmath.exp(1j * a * h) * apply_mod(a, apply_shift(h, u))
    return norm(lhs - rhs) / nu


def generator_apply(h: float, u: TrigPolynomial) -> TrigPolynomial:
    """Derivative of the shift group at t=0: the wave at p gains factor ihp."""
    return make_polynomial([(t.p, 1j * h * t.p * t.c) for t in u])


# ---------------------------------------------------------------------------
# Bounded multiplier functions


@dataclass(frozen=True)
class BoundedFunction:
    """A multiplier x -> f(x) with a declared sup bound and identity tag.

    Tags drive normal-form merging; two functions with equal tags are
    treated as the same multiplier.  Callables must be pure.
    """

    tag: str
    fn: Callable[[float], complex]
    bound: float

    def __call__(self, x: float) -> complex:
        return complex(self.fn(x))

    def at(self, ys: np.ndarray) -> np.ndarray:
        """f on every point of ys, as a complex array."""
        return np.array([complex(self.fn(float(y))) for y in ys], dtype=complex)

    def shifted(self, h: float) -> "BoundedFunction":
        """x -> f(x + h)."""
        if h == 0 or self.tag == "one":
            return self
        return BoundedFunction(
            f"({self.tag})@shift({h!r})", lambda x, _f=self.fn, _h=h: _f(x + _h),
            self.bound,
        )

    def conjugate(self) -> "BoundedFunction":
        if self.tag == "one":
            return self
        return BoundedFunction(
            f"conj({self.tag})",
            lambda x, _f=self.fn: complex(_f(x)).conjugate(),
            self.bound,
        )

    def __mul__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(
            f"({self.tag})*({other.tag})",
            lambda x, _f=self.fn, _g=other.fn: complex(_f(x)) * complex(_g(x)),
            self.bound * other.bound,
        )


@dataclass(frozen=True)
class Constant(BoundedFunction):
    """The constant function x -> value; stays constant through shifts."""

    value: complex = 0j

    def shifted(self, h: float) -> "Constant":
        g = super().shifted(h)
        return g if g is self else replace(self, tag=g.tag, fn=g.fn)

    def conjugate(self) -> "Constant":
        g = super().conjugate()
        return g if g is self else replace(
            self, tag=g.tag, fn=g.fn, value=self.value.conjugate()
        )

    def at(self, ys: np.ndarray) -> np.ndarray:
        return np.full(np.shape(ys), self.value, dtype=complex)


ONE = Constant("one", lambda x: 1.0 + 0j, 1.0, 1.0 + 0j)


def constant(value: complex) -> Constant:
    value = complex(value)
    return Constant(f"const({value!r})", lambda x, _v=value: _v, abs(value), value)


@dataclass(frozen=True)
class Indicator(BoundedFunction):
    """Indicator of the closed interval [lo, hi]; keeps its interval through shifts."""

    lo: float = 0.0
    hi: float = 0.0

    def shifted(self, h: float) -> "Indicator":
        return indicator(self.lo - h, self.hi - h)

    def conjugate(self) -> "Indicator":
        return self

    def at(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        return np.where((self.lo <= ys) & (ys <= self.hi), 1.0 + 0j, 0j)


def indicator(lo: float, hi: float) -> Indicator:
    if not (lo <= hi):
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return Indicator(
        tag=f"ind[{lo!r},{hi!r}]",
        fn=lambda x: 1.0 + 0j if lo <= x <= hi else 0j,
        bound=1.0,
        lo=lo,
        hi=hi,
    )


@dataclass(frozen=True)
class Wave(BoundedFunction):
    """x -> e^{ia(x+s)}: a wave of frequency a, shifted by the offset s."""

    a: float = 0.0
    s: float = 0.0

    def shifted(self, h: float) -> "Wave":
        g = super().shifted(h)
        return g if g is self else replace(self, tag=g.tag, fn=g.fn, s=self.s + h)

    def conjugate(self) -> "Wave":
        g = super().conjugate()
        return replace(self, tag=g.tag, fn=g.fn, a=-self.a)

    def at(self, ys: np.ndarray) -> np.ndarray:
        return np.exp(1j * self.a * (np.asarray(ys, dtype=float) + self.s))


def wave(a: float) -> Wave:
    """x -> e^{iax}, the multiplier realizing M_a."""
    return Wave(
        f"wave({a!r})", lambda x, _a=a: cmath.exp(1j * _a * x), 1.0, float(a), 0.0
    )


# ---------------------------------------------------------------------------
# Atomic measures (convolution operators sum_j w_j S_{a_j})


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite complex measure sum_j w_j delta_{a_j} with distinct locations."""

    atoms: Tuple[Tuple[float, complex], ...]

    def __post_init__(self):
        locs = [a for a, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("measure locations must be distinct")
        for a, w in self.atoms:
            if not (math.isfinite(a) and math.isfinite(abs(w))):
                raise ValueError("non-finite measure atom")

    @property
    def total_variation(self) -> float:
        return sum(abs(w) for _, w in self.atoms)


def point_measure(*atoms: Tuple[float, complex]) -> AtomicMeasure:
    return AtomicMeasure(tuple((float(a), complex(w)) for a, w in atoms))


# ---------------------------------------------------------------------------
# Normal-form algebra elements


@dataclass(frozen=True)
class AlgebraElement:
    """Normal form sum_j c_j M_{f_j} S_{a_j} with at most one term per (tag, a)."""

    terms: Tuple[Tuple[complex, BoundedFunction, float], ...]

    @staticmethod
    def of(terms: Iterable[Tuple[complex, BoundedFunction, float]]) -> "AlgebraElement":
        merged: dict[Tuple[str, float], Tuple[complex, BoundedFunction, float]] = {}
        for c, f, a in terms:
            c = complex(c)
            a = float(a)
            key = (f.tag, a)
            if key in merged:
                c0, f0, _ = merged[key]
                merged[key] = (c0 + c, f0, a)
            else:
                merged[key] = (c, f, a)
        kept = tuple(
            (c, f, a) for (c, f, a) in merged.values() if c != 0
        )
        return AlgebraElement(kept)

    @staticmethod
    def identity() -> "AlgebraElement":
        return AlgebraElement.of([(1.0, ONE, 0.0)])

    @staticmethod
    def shift(h: float) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, ONE, float(h))])

    @staticmethod
    def mult(f: BoundedFunction) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, f, 0.0)])

    @staticmethod
    def modulation(a: float) -> "AlgebraElement":
        return AlgebraElement.of([(1.0, wave(a), 0.0)])

    @staticmethod
    def from_measure(m: AtomicMeasure) -> "AlgebraElement":
        """Convolution operator sum_j w_j S_{a_j}."""
        return AlgebraElement.of([(w, ONE, a) for a, w in m.atoms])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement.of(self.terms + other.terms)

    def __rmul__(self, alpha: complex) -> "AlgebraElement":
        return AlgebraElement.of([(alpha * c, f, a) for c, f, a in self.terms])


def apply_mult(f: BoundedFunction, u: AtomicVector) -> AtomicVector:
    return make_vector([(a.p, f(a.p) * a.c) for a in u])


def apply_element(A: AlgebraElement, u: AtomicVector) -> AtomicVector:
    out = AtomicVector()
    for c, f, a in A.terms:
        out = out + c * apply_mult(f, apply_shift(a, u))
    return out


def compose(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Product A B in normal form: (M_f S_a)(M_g S_b) = M_{f * g(.+a)} S_{a+b}."""
    terms = []
    for c1, f1, a1 in A.terms:
        for c2, f2, a2 in B.terms:
            g = f2.shifted(a1)
            if f1.tag == ONE.tag:
                prod = g
            elif g.tag == ONE.tag:
                prod = f1
            else:
                prod = f1 * g
            terms.append((c1 * c2, prod, a1 + a2))
    return AlgebraElement.of(terms)


def adjoint(A: AlgebraElement) -> AlgebraElement:
    """(c M_f S_a)* = conj(c) M_{conj f (.-a)} S_{-a}."""
    return AlgebraElement.of(
        [(c.conjugate(), f.conjugate().shifted(-a), -a) for c, f, a in A.terms]
    )
