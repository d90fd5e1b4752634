"""Probability laws, characteristic functions, and operator random walks.

Every law carries its characteristic function chi(x) = E e^{ix xi} in
closed form, written once on float arrays, so chi takes a number or an
array.  Averaging the modulation group over a law multiplies the amplitude
at frequency p by chi(sqrt(t) p); n independent steps of size t/n give
chi(sqrt(t/n) p)^n, which converges to the Gaussian multiplier
e^{-t D p^2 / 2} at rate O(1/n) for zero-mean laws with variance D (and is
exactly equal for Gaussian steps).

Randomness is counter-based (Philox): a 64-bit seed plus a stream index
determine the draw sequence, so parallel Monte Carlo partitions are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .atoms import AtomicVector, Record, apply_mod, canonical, cmul, named_overflow

_WEIGHT_TOL = 1e-12


def check_weights(ws: Sequence[float], what: str) -> None:
    """Raise ValueError naming ``what`` unless ws are non-negative and sum to 1."""
    if any(w < 0 for w in ws):
        raise ValueError(f"{what} must be non-negative")
    if abs(sum(ws) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"{what} must sum to 1, got {sum(ws)!r}")


def _square(x: float) -> float:
    """x ** 2, or inf past sqrt(max float), where Python's pow raises OverflowError."""
    return math.inf if abs(x) > 1.3407807929942596e154 else x ** 2


# ---------------------------------------------------------------------------
# Laws


class Distribution(Record):
    """Base class for the supported laws.  Immutable."""

    has_discrete_part: bool = False

    def chi(self, x):
        """E e^{ix xi}: a Python complex for a number x, a new complex array for an array.

        A value that is not finite (a phase x a overflows, or x is NaN)
        raises ValueError naming the law and x.
        """
        return self.chi_pow(x, 1)

    def chi_pow(self, x, n: int):
        """chi(x)^n, taken as ``chi`` is."""
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        # an overflow only drives chi to its limit 0, or to NaN, caught below
        with np.errstate(all="ignore"):
            v = self._chi_pow(flat, n)
        # |chi| <= 1, so the sum is finite exactly when every value is
        if not math.isfinite(abs(v.sum())):
            bad = flat[~np.isfinite(v)][0]
            raise ValueError(f"chi of {self!r} is not finite at x = {float(bad)!r}: "
                             "a phase x a overflows, or x is not a number")
        return complex(v[0]) if xs.ndim == 0 else np.asarray(v, dtype=complex).reshape(xs.shape)

    def _chi(self, x: np.ndarray) -> np.ndarray:
        """chi on a 1-d float array, as a real or complex array."""
        raise NotImplementedError

    def _chi_pow(self, x: np.ndarray, n: int) -> np.ndarray:
        """chi^n on a 1-d float array; overridden where a closed form avoids power-loss."""
        return self._chi(x) if n == 1 else self._chi(x) ** n

    def draw(self, gen: np.random.Generator, size: int):
        """``size`` draws from ``gen`` as (xs, idx), fresh arrays that are the caller's.

        A law with no continuous part (a mixture of such laws too) draws atom
        indices: xs holds its atom locations, which a mixture may repeat, and
        the int64 array idx indexes them, so the draws are ``xs[idx]`` and a
        Monte Carlo integrand needs one value per location, gathered by idx.
        Any other law gives its draws as xs, with idx None.
        """
        if gen is None:
            raise ValueError("mc evaluation needs a generator")
        return self._draw(gen, size)

    def _draw(self, gen: np.random.Generator, size: int):
        """(xs, idx) of ``draw``."""
        raise NotImplementedError

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """The draws of ``draw`` in draw order, as a fresh, writable array."""
        xs, idx = self.draw(gen, size)
        return xs if idx is None else xs[idx]

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Second central moment; +inf where undefined/infinite."""
        raise NotImplementedError

    # Optional structure used by the channel module ------------------------

    def cdf(self, x: float) -> float:
        raise NotImplementedError(f"no closed-form cdf for {self!r}")

    def gauss_rule(
        self, n: int, lo: float = -math.inf, hi: float = math.inf
    ) -> Tuple[np.ndarray, np.ndarray]:
        """n-point Gauss-Legendre rule (nodes, weights) for E g(xi) 1[lo <= xi <= hi].

        The weights are positive and sum to P(lo <= xi <= hi) up to rounding.
        Defined for the continuous laws only.
        """
        raise NotImplementedError(f"no Gauss rule for {self!r}")

    def discrete_atoms(self) -> Tuple[Tuple[float, float], ...]:
        """(location, probability) pairs of the discrete part."""
        return ()

    def continuous_weight(self) -> float:
        """Probability mass of the continuous part."""
        return 0.0 if self.has_discrete_part else 1.0

    def continuous_part(self) -> Optional["Distribution"]:
        """The continuous part as a normalized law, or None when it has no mass.

        The law is ``continuous_weight()`` times this part plus its
        ``discrete_atoms()`` (the Lebesgue split of a law; Yosida & Hewitt,
        Trans. AMS 72, 1952).
        """
        return None if self.has_discrete_part else self

    def to_json(self) -> dict:
        """{"kind": kind, **fields}: the law's kind in ``_KINDS``, then its ``_fields``."""
        kind = next((k for k, cls in _KINDS.items() if cls is self.__class__), None)
        if kind is None:
            raise NotImplementedError(f"no JSON kind for {self.__class__.__name__}")
        return {"kind": kind, **{name: getattr(self, name) for name in self._fields}}


class Gaussian(Distribution):
    _fields = ("D",)

    def __init__(self, D: float = 1.0):
        object.__setattr__(self, "D", D)
        if not (D > 0 and math.isfinite(D)):
            raise ValueError(f"variance must be positive: {D!r}")

    def _chi_pow(self, x, n):
        # closed form of chi^n; keeps the Gaussian fixed-point identity exact
        return np.exp(-0.5 * n * self.D * x * x)

    def _draw(self, gen, size):
        return gen.normal(0.0, math.sqrt(self.D), size), None

    mean = property(lambda self: 0.0)
    variance = property(lambda self: self.D)

    def cdf(self, x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * self.D)))

    def gauss_rule(self, n, lo=-math.inf, hi=math.inf):
        s = math.sqrt(self.D)
        # beyond 12 standard deviations the mass is below 1e-32
        y, w = _legendre(n, max(lo, -12.0 * s), min(hi, 12.0 * s))
        return y, w * np.exp(-y * y / (2.0 * self.D)) / math.sqrt(2.0 * math.pi * self.D)


class Cauchy(Distribution):
    _fields = ("gamma",)

    def __init__(self, gamma: float = 1.0):
        object.__setattr__(self, "gamma", gamma)
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ValueError(f"scale must be positive: {gamma!r}")

    def _chi_pow(self, x, n):
        return np.exp(-n * self.gamma * np.abs(x))

    def _draw(self, gen, size):
        with np.errstate(over="ignore"):  # a draw past the float range is +-inf
            return self.gamma * gen.standard_cauchy(size), None

    mean = property(lambda self: math.nan)
    variance = property(lambda self: math.inf)

    def cdf(self, x):
        return 0.5 + math.atan(x / self.gamma) / math.pi

    def gauss_rule(self, n, lo=-math.inf, hi=math.inf):
        # y = gamma tan(theta) turns the density into the constant 1/pi on
        # (-pi/2, pi/2), so the heavy tails need no cut-off window
        th, w = _legendre(n, math.atan(lo / self.gamma), math.atan(hi / self.gamma))
        return self.gamma * np.tan(th), w / math.pi


class Rademacher(Distribution):
    has_discrete_part = True

    def _chi_pow(self, x, n):
        # cos x = 1 - 2 sin^2(x/2), so where cos x > 0 the power is
        # exp(n log1p(-2 sin^2(x/2))), whose rounding does not grow with n
        c = np.cos(x)
        if n == 1:
            return c
        return np.where(c > 0, np.exp(n * np.log1p(-2.0 * np.sin(0.5 * x) ** 2)), c ** n)

    def _draw(self, gen, size):
        # the draws of gen.choice([-1.0, 1.0], size), which takes these indices
        return np.array([-1.0, 1.0]), gen.integers(0, 2, size)

    mean = property(lambda self: 0.0)
    variance = property(lambda self: 1.0)

    def discrete_atoms(self):
        return ((-1.0, 0.5), (1.0, 0.5))


class Uniform(Distribution):
    _fields = ("a", "b")

    def __init__(self, a: float = -1.0, b: float = 1.0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (a < b and math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"need a < b, got [{a!r}, {b!r}]")

    def _chi(self, x):
        # e^{ix m} sin(x h) / (x h) with m the midpoint and h the half-width:
        # no cancellation near x = 0 and |chi| <= 1 down to the subnormals
        m, h = 0.5 * self.a + 0.5 * self.b, 0.5 * self.b - 0.5 * self.a
        xh = x * h
        sinc = np.divide(np.sin(xh), xh, out=np.ones_like(xh), where=xh != 0)
        return np.exp(1j * (x * m)) * sinc

    def _draw(self, gen, size):
        if math.isinf(self.b - self.a):
            raise ValueError(f"cannot draw from {self!r}: its range b - a overflows")
        return gen.uniform(self.a, self.b, size), None

    # halves only where a + b overflows, so that every finite mean keeps its bits
    mean = property(lambda self: 0.5 * (self.a + self.b) if math.isfinite(self.a + self.b)
                    else 0.5 * self.a + 0.5 * self.b)
    variance = property(lambda self: _square(self.b - self.a) / 12.0)

    def cdf(self, x):
        a, b = self.a, self.b
        if math.isinf(b - a):  # halves keep the ratio and do not overflow
            x, a, b = 0.5 * x, 0.5 * a, 0.5 * b
        return min(1.0, max(0.0, (x - a) / (b - a)))

    def gauss_rule(self, n, lo=-math.inf, hi=math.inf):
        y, w = _legendre(n, max(lo, self.a), min(hi, self.b))
        a, b = self.a, self.b
        if math.isinf(b - a):  # as in cdf
            w, a, b = 0.5 * w, 0.5 * a, 0.5 * b
        return y, w / (b - a)


class PointMass(Distribution):
    _fields = ("a",)
    has_discrete_part = True

    def __init__(self, a: float = 0.0):
        object.__setattr__(self, "a", a)
        if not math.isfinite(a):
            raise ValueError(f"non-finite location: {a!r}")

    def _chi(self, x):
        return np.exp(1j * (self.a * x))

    def _draw(self, gen, size):
        return np.array([self.a], dtype=float), np.zeros(size, dtype=np.int64)

    mean = property(lambda self: self.a)
    variance = property(lambda self: 0.0)

    def discrete_atoms(self):
        return ((self.a, 1.0),)


class FiniteMixture(Distribution):
    """sum_i w_i d_i.  A draw takes the counts from one multinomial, draws each component
    in turn and shuffles; with no continuous part it shuffles atom indices, as ``draw``."""

    _fields = ("components",)

    def __init__(self, components: Tuple[Tuple[float, Distribution], ...] = ()):
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("mixture needs at least one component")
        check_weights([w for w, _ in components], "mixture weights")

    @property
    def _positive(self):
        """The components of positive weight: one of weight 0 adds no atom, chi, cdf or moment."""
        return [(w, d) for w, d in self.components if w > 0]

    @property
    def has_discrete_part(self) -> bool:  # type: ignore[override]
        return any(d.has_discrete_part for _, d in self._positive)

    def _chi(self, x):
        return sum((w * d._chi_pow(x, 1) for w, d in self._positive), 0j)

    def _draw(self, gen, size):
        ws = np.array([w for w, _ in self.components])
        counts = gen.multinomial(size, ws / ws.sum())
        if self.continuous_weight() == 0:
            # indices into the tables of the components that draw (the empty
            # seeds serve size 0); shuffling them takes the values' random numbers
            tables, idxs, k0 = [np.empty(0)], [np.empty(0, dtype=np.int64)], 0
            for (_, d), k in zip(self.components, counts.tolist()):
                xs, idx = d.draw(gen, k)
                if k:  # a component that draws nothing adds no location
                    idx += k0
                    tables.append(xs)
                    idxs.append(idx)
                    k0 += len(xs)
            idx = np.concatenate(idxs)
            gen.shuffle(idx)
            return np.concatenate(tables), idx
        # each component's draws go straight into one array, which is then
        # shuffled: no second array of all the draws
        out, k0 = np.empty(size), 0
        for (_, d), k in zip(self.components, counts.tolist()):
            out[k0:k0 + k] = d.sample(gen, k)
            k0 += k
        gen.shuffle(out)
        return out, None

    @property
    def mean(self):
        return sum(w * d.mean for w, d in self._positive)

    @property
    def variance(self):
        m = self.mean
        if not math.isfinite(m):
            return math.inf
        return sum(w * (d.variance + _square(d.mean - m)) for w, d in self._positive)

    def cdf(self, x):
        return sum(w * d.cdf(x) for w, d in self._positive)

    def gauss_rule(self, n, lo=-math.inf, hi=math.inf):
        # the weighted union of the components' rules
        rules = [(w, d.gauss_rule(n, lo, hi)) for w, d in self._positive]
        return (np.concatenate([ys for _, (ys, _) in rules]),
                np.concatenate([w * ws for w, (_, ws) in rules]))

    def discrete_atoms(self):
        acc: dict[float, float] = {}
        for w, d in self._positive:
            for loc, pr in d.discrete_atoms():
                acc[loc] = acc.get(loc, 0.0) + w * pr
        return tuple(sorted(acc.items()))

    def continuous_weight(self):
        if not self.has_discrete_part:  # its own continuous part, of weight 1 exactly
            return 1.0
        return sum(w * d.continuous_weight() for w, d in self.components)

    def continuous_part(self):
        if not self.has_discrete_part:
            return self
        parts = [(w * d.continuous_weight(), d.continuous_part()) for w, d in self.components]
        parts = [(w, d) for w, d in parts if w > 0]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0][1]
        cw = sum(w for w, _ in parts)
        return FiniteMixture(tuple((w / cw, d) for w, d in parts))

    def to_json(self):
        return {
            "kind": "mixture",
            "components": [
                {"weight": w, "distribution": d.to_json()} for w, d in self.components
            ],
        }


@functools.lru_cache(maxsize=None)
def _reference_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [-1, 1]."""
    # numpy takes the nodes as eigenvalues of the symmetric tridiagonal Jacobi
    # matrix (Golub & Welsch, Math. Comp. 23, 1969), refined by a Newton step
    from numpy.polynomial import legendre

    t, w = legendre.leggauss(n)
    # cached and shared by every caller, so read-only
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _legendre(n: int, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for the Lebesgue measure on [lo, hi]."""
    if not lo < hi:
        return np.empty(0), np.empty(0)
    t, w = _reference_rule(n)
    # halves first only where the plain sum or difference overflows
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    if math.isinf(half):
        half = 0.5 * hi - 0.5 * lo
    if math.isinf(mid):
        mid = 0.5 * hi + 0.5 * lo
    return half * t + mid, half * w


# the JSON kind of each simple law; a FiniteMixture nests its components' documents
_KINDS = {"gaussian": Gaussian, "cauchy": Cauchy, "rademacher": Rademacher,
          "uniform": Uniform, "pointmass": PointMass}


def distribution_from_json(doc: dict) -> Distribution:
    """Inverse of Distribution.to_json."""
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is not None:
        return cls(*(float(doc[name]) for name in cls._fields))
    if kind == "mixture":
        return FiniteMixture(
            tuple(
                (float(c["weight"]), distribution_from_json(c["distribution"]))
                for c in doc["components"]
            )
        )
    raise ValueError(f"unknown distribution kind: {kind!r}")


# ---------------------------------------------------------------------------
# Convolution families and reproducible streams


class ConvolutionFamily(Record):
    """One-parameter family with law(s) + law(t) distributed as law(s+t)."""

    _fields = ("kind",)

    def __init__(self, kind: str):  # "gaussian" | "cauchy"
        object.__setattr__(self, "kind", kind)
        if kind not in ("gaussian", "cauchy"):
            raise ValueError(f"unknown family kind: {kind!r}")

    def at(self, t: float) -> Distribution:
        if not 0 <= t < math.inf:
            raise ValueError(f"family parameter must be non-negative and finite: {t!r}")
        if t == 0:
            return PointMass(0.0)
        return Gaussian(t) if self.kind == "gaussian" else Cauchy(t)


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Law of xi_1 + xi_2 for the closed-form cases used by the semigroups."""
    if isinstance(d1, PointMass) and d1.a == 0:
        return d2
    if isinstance(d2, PointMass) and d2.a == 0:
        return d1
    law = d1.__class__
    if law is d2.__class__ and law in (PointMass, Gaussian, Cauchy):
        # the one parameter adds: location, variance or scale
        (name,) = law._fields
        total = getattr(d1, name) + getattr(d2, name)
        if not math.isfinite(total):
            raise ValueError(f"{d1!r} + {d2!r}: the {name} parameters add past the largest float")
        return law(total)
    raise ValueError(f"no closed-form convolution for {d1!r} + {d2!r}")


class SeededRng(Record):
    """Counter-based randomness: (seed, stream index) -> independent stream.

    Streams use Philox with key (seed, index); equal seeds give identical
    draws, distinct indices give statistically independent substreams.
    """

    _fields = ("seed",)

    def __init__(self, seed: int):
        object.__setattr__(self, "seed", seed)

    def stream(self, index: int = 0) -> np.random.Generator:
        key = np.array(
            [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


class McEstimate(NamedTuple):
    value: complex
    stderr: float
    samples: int

    @classmethod
    def of(cls, vals: np.ndarray, idx: Optional[np.ndarray] = None) -> "McEstimate":
        """The mean of the n samples vals, or vals[idx], with stderr sqrt(mean |dev|^2 / n).

        With idx, vals holds one value per atom location (``Distribution.draw``),
        and each deviation and square is taken once per location and gathered:
        the bits of the samples written out.  vals is the caller's scratch,
        centred in place, with the squares in its real parts.
        """
        n = len(vals if idx is None else idx)
        at = slice(None) if idx is None else idx  # a view of vals, or the gather
        mean = complex(vals[at].mean())
        vals -= mean
        sq = np.abs(vals, out=vals.real)
        var = float(np.mean(np.square(sq, out=sq)[at]))
        return cls(mean, math.sqrt(var / n), n)


# ---------------------------------------------------------------------------
# Averaged multipliers and walks


def _step(t: float, n: int) -> float:
    """sqrt(t/n), the scale of each of n steps over the time t."""
    if n < 1:
        raise ValueError(f"need at least one step: {n!r}")
    if t < 0:
        raise ValueError(f"time must be non-negative: {t!r}")
    return math.sqrt(t / n)


def _step_chi_pow(d: Distribution, t: float, n: int, ps: np.ndarray) -> np.ndarray:
    """chi(sqrt(t/n) p)^n at each p of ps, sqrt(t/n) p taken with overflow warnings off:
    a Gaussian or Cauchy chi is 0.0 at +-inf, and any other law names t, n and p."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = _step(t, n) * ps
    try:
        return d.chi_pow(x, n)
    except ValueError:
        if np.isfinite(x).all():
            raise
        raise ValueError(f"the step frequency sqrt(t/n) p is not finite for t = {t!r}, n = {n!r} "
                         f"and p = {ps[~np.isfinite(x)].item(0)!r}") from None


def random_walk_apply(
    d: Distribution,
    t: float,
    n: int,
    gen: np.random.Generator,
    u: AtomicVector,
) -> AtomicVector:
    """One realization of n composed modulation steps of size t/n.

    Modulations commute and their parameters add, so the composed phase at
    frequency p is e^{i p sqrt(t/n) sum_k xi_k}; unitary for every draw.
    """
    rt = _step(t, n)
    with np.errstate(over="ignore", invalid="ignore"):  # +-inf or NaN, which apply_mod names
        total = float(d.sample(gen, n).sum())
    return apply_mod(rt * total, u)


def expected_walk_apply(d: Distribution, t: float, n: int, u: AtomicVector) -> AtomicVector:
    """Mean of the n-step walk: amplitude factor chi(sqrt(t/n) p)^n.

    n = 1 is the averaged modulation E M_{sqrt(t) xi}, and Gaussian(D) steps
    give the Chernoff limit multiplier e^{-t D p^2 / 2} at every n.
    """
    x = _step_chi_pow(d, t, n, u.freqs)
    return named_overflow(lambda: canonical(u.freqs, cmul(x, u.amps)),
                          lambda p: f"chi(sqrt(t/n) {p!r})^{n!r} * {u.amplitude(p)!r}, the "
                          f"amplitude at frequency {p!r}, is not finite")


def chernoff_error(
    d: Distribution, t: float, n: int, probes: Sequence[float]
) -> float:
    """Sup over probe frequencies of |chi(sqrt(t/n) x)^n - e^{-t D x^2 / 2}|.

    Requires a zero-mean law with finite variance; decays like O(1/n) when
    the fourth moment is finite, and vanishes identically for Gaussian steps.
    """
    D = d.variance
    if not (math.isfinite(D) and D > 0):
        raise ValueError(
            f"law must have positive finite variance, got {D!r} for {d!r}"
        )
    if d.mean != 0:
        raise ValueError(f"law must be centered, got mean {d.mean!r}")
    x = np.asarray(probes, dtype=float)
    # the limit e^{-t D x^2 / 2} is chi of the Gaussian law of variance t D
    err = _step_chi_pow(d, t, n, x) - ConvolutionFamily("gaussian").at(t * D).chi(x)
    return float(np.hypot(err.real, err.imag).max())
