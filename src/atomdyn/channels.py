"""Quantum states over the atomic-vector algebra and their channels.

States are positive unital functionals on the normal-form operator algebra
of :mod:`atomdyn.algebra`.  Four representations are executable:

* pure       -- a unit atomic vector u, acting by (u, A u);
* normal     -- a finite density matrix rho over a frequency support,
                acting by tr(rho A);
* mixed      -- a finite convex combination of states of any kind;
* averaged   -- a pure, normal or mixed base state smoothed by a random
                shift: the functional A -> E <T_xi base, A>, kept
                *intensionally* as the pair (base, law).  When the law is
                continuous this functional vanishes on every finite-rank
                projector (it is singular), so no matrix can represent it.

Channels: T_h conjugates by the shift S_h, Phi_h by the modulation M_h.
Averaging Phi over a law multiplies density-matrix entries by
chi(p_j - p_k) (Schur product with a positive-definite kernel), which
preserves normality; averaging T over a continuous law destroys it.
One-parameter convolution families turn both into semigroups.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .atoms import AtomicVector, Record, cmul, match, norm
from .algebra import (ONE, AlgebraElement, Multiplier, apply_shift, check_draws, check_shifts,
                      check_wave, shift_overlaps)
from .rand import Distribution, ConvolutionFamily, McEstimate, PointMass, check_weights, convolve

_UNIT_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_TOL = 1e-10
# Gauss rule orders; the higher one is accepted only when both agree
GAUSS_ORDERS = (64, 128)
_RULE_TOL = 1e-9


# ---------------------------------------------------------------------------
# State representations


class PureState(Record):
    _fields = ("vector",)

    def __init__(self, vector: AtomicVector):
        object.__setattr__(self, "vector", vector)
        n = norm(vector)
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"pure state vector must be unit norm, got {n!r}")


class NormalState(Record):
    """Density matrix over a finite frequency support.

    Entry (j, k) is the coefficient of |1_{p_j}><1_{p_k}|.  Every consumer
    reads the matrix itself: ``evaluate`` as tr(rho A), and an averaged
    state keeps rho as its base, with no eigen-decomposition anywhere.  On
    construction rho is PSD when rho + 1e-10 I has a Cholesky factor, which
    fails just when its smallest eigenvalue is below -1e-10 up to rounding.
    The channels build their outputs through ``_channel_output``, which
    skips that one check: their matrices are PSD by construction.  Two
    states are equal when their supports are and their matrices hold equal
    entries; the hash, that of the field tuple, raises TypeError, as an
    array is unhashable.
    """

    _fields = ("support", "matrix")

    def __init__(self, support: Tuple[float, ...], matrix: np.ndarray):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", matrix)
        self._validate()
        k = len(self.support)
        if k:
            try:
                np.linalg.cholesky(self.matrix + _PSD_TOL * np.eye(k))
            except np.linalg.LinAlgError:
                raise ValueError("density matrix must be positive semidefinite") from None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.support == other.support and np.array_equal(self.matrix, other.matrix)
        return NotImplemented

    @classmethod
    def _channel_output(cls, support, matrix) -> "NormalState":
        """A channel's output: every check of the constructor but the PSD one.

        For ``channel_T`` the matrix is unitarily similar to a checked one,
        and for ``averaged_Phi`` (so ``channel_Phi``) it is the Schur product
        of a checked one with the positive-definite kernel chi(p_j - p_k).
        """
        s = object.__new__(cls)
        object.__setattr__(s, "support", support)
        object.__setattr__(s, "matrix", matrix)
        s._validate()
        return s

    def _validate(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        k = len(self.support)
        if not all(math.isfinite(p) for p in self.support):
            raise ValueError("support frequencies must be finite")
        if len(set(self.support)) != k:
            raise ValueError("support frequencies must be distinct")
        if m.shape != (k, k):
            raise ValueError(f"matrix shape {m.shape} does not match support size {k}")
        with np.errstate(invalid="ignore"):  # a NaN or inf entry fails the test
            herm = np.max(np.abs(m - m.conj().T), initial=0.0)
        if not herm <= _HERM_TOL:
            raise ValueError("density matrix must be Hermitian" if np.isfinite(m).all()
                             else "density matrix entries must be finite")
        if abs(np.trace(m).real - 1.0) > _UNIT_TOL:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(m)!r}")


class MixedState(Record):
    _fields = ("components",)

    def __init__(self, components: Tuple[Tuple[float, State], ...]):
        object.__setattr__(self, "components", components)
        check_weights([w for w, _ in components], "mixture weights")
        for _, s in components:
            if not isinstance(s, (PureState, NormalState, MixedState, AveragedState)):
                raise TypeError(f"mixture component is not a state: {s!r}")


class AveragedState(Record):
    """Lazy functional A -> E <T_xi base, A>; singular when smoothing is continuous.

    The base is a pure, normal or mixed state with no averaged state in it,
    kept as given, and the smoothing a :class:`Distribution`; anything else
    raises TypeError.
    """

    _fields = ("base", "smoothing")

    def __init__(self, base: Union[PureState, NormalState, MixedState],
                 smoothing: Distribution):
        if not isinstance(base, (PureState, NormalState, MixedState)) or _averaged_in(base):
            raise TypeError(f"averaged state base is not a pure, normal or mixed state with no "
                            f"averaged state in it: {base!r}")
        self._set(base, smoothing)

    @classmethod
    def _of_base(cls, base, smoothing) -> "AveragedState":
        """The state on a base the caller knows to be valid: every check but the base's.

        ``averaged_T`` has walked the base already, and ``channel_T`` and a
        stack of laws take the base of an averaged state."""
        s = object.__new__(cls)
        s._set(base, smoothing)
        return s

    def _set(self, base, smoothing):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "smoothing", smoothing)
        if not isinstance(smoothing, Distribution):
            raise TypeError(f"averaged state smoothing is not a Distribution: {smoothing!r}")


State = Union[PureState, NormalState, MixedState, AveragedState]


def _averaged_in(s) -> bool:
    """Whether s is an averaged state or a mixture that holds one at any depth."""
    return isinstance(s, AveragedState) or (
        isinstance(s, MixedState) and any(_averaged_in(st) for _, st in s.components))


# ---------------------------------------------------------------------------
# Expectations E f(xi - x) over a smoothing law


class QuadratureError(ArithmeticError):
    """Two Gauss rule orders disagree: the expectation is not resolved."""


def _check_method(method: str, mc_samples: int) -> None:
    if method not in ("analytic", "mc"):
        raise ValueError(f"unknown expectation method: {method!r}")
    if method == "mc" and (isinstance(mc_samples, bool)
                           or not isinstance(mc_samples, (int, np.integer)) or mc_samples < 1):
        raise ValueError(f"mc_samples must be an integer of at least 1, got {mc_samples!r}")


def expect_function(
    d: Distribution,
    f: Multiplier,
    x: float,
    method: str = "analytic",
    mc_samples: int = 100_000,
    gen: Optional[np.random.Generator] = None,
):
    """E f(xi - x) for xi ~ d.

    ``analytic`` takes one of three paths and never returns a silent
    approximation.  It also takes a 1-d array x, and then returns the array
    of the values at its points:

    * closed form -- a multiplier c e^{iay} on the whole line gives
      c e^{-iax} chi(a) under any law, one array expression in x;
      otherwise the discrete part is a finite sum, and on the continuous
      part a constant c on [lo, hi] is c times a cdf difference;
    * Gauss rule -- a wave on an interval is integrated against the
      continuous part by the law's rule (Gauss-Legendre for Gaussian within
      12 standard deviations and for Uniform, Gauss-Legendre in theta for
      Cauchy with y = gamma tan theta, and the weighted union of its
      components' rules for a mixture) at the two orders of
      ``GAUSS_ORDERS``, over the interval [lo + x, hi + x].  The higher
      order is returned when the two agree within 1e-9;
    * error -- :class:`QuadratureError` when they do not, and
      NotImplementedError when the law has no rule.

    ``mc`` returns the :class:`McEstimate` of the values f(xi_i - x) over
    n = ``mc_samples`` draws.  A law with no continuous part draws atom
    indices, so f is taken once per location and gathered into draw order
    (``Multiplier.at``).  The values are those of
    ``f.at(d.sample(gen, n) - x)`` bit for bit.  mc_samples must be an
    integer (a numpy one too) of at least 1.  Under either method, x must
    be finite, and a phase a (xi - x) that overflows raises ValueError.

    Only the continuous part of the law (``Distribution.continuous_part``,
    of mass ``continuous_weight``) meets a cdf or a rule; its discrete
    atoms are summed once, by the finite sum.
    """
    _check_method(method, mc_samples)
    if not (isinstance(x, np.ndarray) or math.isfinite(x)):
        raise ValueError(f"E f(xi - x) needs a finite x, got x = {x!r}")
    if method == "mc":
        ys, idx = d.draw(gen, mc_samples)
        # a phase that overflows gives NaN values, which make the mean NaN
        with np.errstate(over="ignore", invalid="ignore"):
            ys -= x
            est = McEstimate.of(f.at(ys, idx))
        if not math.isfinite(abs(est.value)):
            raise _not_finite(d, f, x)
        return est
    if f.lo == -math.inf and f.hi == math.inf:
        # c e^{-iax} chi(a), where e^{-iax} is the chi of the point mass at -a
        xs = np.asarray(x, dtype=float).reshape(-1)
        v = PointMass(-f.a).chi(xs) * (f.c * d.chi(f.a)) if f.a else np.full(len(xs), f.c)
        return v if isinstance(x, np.ndarray) else complex(v[0])
    if isinstance(x, np.ndarray):
        return np.array([expect_function(d, f, y) for y in x.tolist()], dtype=complex)

    total = 0j
    for loc, pr in d.discrete_atoms():
        try:
            total += pr * complex(f(loc - x))
        except ValueError:  # cmath.exp of a phase that overflows
            raise _not_finite(d, f, x) from None
    cw = d.continuous_weight()
    if cw > 0:
        total += cw * _expect_continuous(d.continuous_part(), f, x)
    return total


def _not_finite(d, f, x) -> ValueError:
    return ValueError(f"E f(xi - x) for f = {f!r} under {d!r} is not finite at x = {x!r}: "
                      "a phase a (xi - x) overflows")


def _expect_continuous(d, f, x):
    lo, hi = f.lo + x, f.hi + x
    if not f.a:
        # c P(lo <= xi <= hi)
        return f.c * complex(d.cdf(hi) - d.cdf(lo))
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in GAUSS_ORDERS:
            ys, ws = d.gauss_rule(n, lo, hi)
            values.append(complex(np.dot(ws, f.at(ys - x))))
    if not all(math.isfinite(abs(v)) for v in values):
        raise _not_finite(d, f, x)
    if abs(values[-1] - values[0]) > _RULE_TOL:
        raise QuadratureError(
            f"E f(xi - x) for f = {f!r}, x = {x!r} under {d!r} is unresolved: "
            f"Gauss rules of orders {GAUSS_ORDERS} give {values[0]!r} and {values[-1]!r}"
        )
    return values[-1]


# ---------------------------------------------------------------------------
# Evaluation <state, A>


def evaluate(
    s,
    A: AlgebraElement,
    method: str = "analytic",
    mc_samples: int = 100_000,
    gen: Optional[np.random.Generator] = None,
):
    """Value of the functional s on the normal-form operator A.

    Every kind pairs atoms by one rule (see ``_hits``), which gives each
    term c M_f S_a the weights r and frequencies q of its atom pairs.  Pure,
    normal and mixed states add c np.dot(r, f(q)) over the terms, exactly;
    they ignore ``mc_samples`` and ``gen``.  An averaged state pairs its
    base so too, since the random shift survives only in the multiplier's
    argument (shift-evaluation invariance): ``analytic`` takes E f(xi - q)
    (see :func:`expect_function`) in place of f(q), and ``mc`` draws
    xi_1 ... xi_N once, N = ``mc_samples``, each one realization of the
    channel, and returns the :class:`McEstimate` of g(xi) = sum c r f(xi - q)
    over the draws.  Under a law with no continuous part each f(loc - q) is
    taken once per atom location and gathered by the drawn atom indices
    before the weights c r and the sums meet the length-N array, so the
    bits are those of the draw-by-draw sum.  A convolution, whose
    multipliers are all ``ONE``, gives the value on the base bit for bit,
    under ``mc`` with stderr 0 and no draw from ``gen``.  A mixture that
    holds an averaged state adds its components' weighted values, and their
    variances as (weight stderr)^2, so it returns an :class:`McEstimate`
    under ``mc`` when an averaged state in it does.  ``method`` must be
    ``analytic`` or ``mc`` for every kind, and under ``mc`` mc_samples an
    integer of at least 1.
    Outside ``mc`` the terms add up with overflow warnings off; a sum that is not finite
    raises ValueError by ``check_wave`` on unaveraged states, terms in order, or names A.
    """
    _check_method(method, mc_samples)
    if isinstance(s, MixedState) and _averaged_in(s):
        return _weighted_sum(
            ((w, evaluate(st, A, method, mc_samples, gen)) for w, st in s.components), mc_samples
        )
    base, d = s, None
    if isinstance(s, AveragedState):
        base, d = s.base, s.smoothing
        if method == "mc":
            if all(f == ONE for _, f, _ in A.terms):
                return McEstimate(evaluate(base, A), 0.0, mc_samples)
            return _mc_evaluate(base, A, d, mc_samples, gen)
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for c, f, r, q in _hits(base, A):
            values = f.at(q) if d is None else expect_function(d, f, q)
            total += c * complex(np.dot(r, values))
    if not cmath.isfinite(total):
        if d is None:
            for _, f, _, q in _hits(base, A):
                check_wave(f.a, f.lo, f.hi, q)
        raise ValueError(f"<s, A> for A = {A!r} is not finite: a term weight times its pair "
                         "sum, or the sum of the terms, overflows the float range")
    return total


def _mc_evaluate(base, A: AlgebraElement, d: Distribution, n: int, gen) -> McEstimate:
    """(mean g, sqrt(mean |g - mean|^2 / n), n) for g(xi) = <T_xi base, A> on n draws.

    g is accumulated pair by pair in one length-n array.
    """
    hits = list(_hits(base, A))  # a shift error raises before any draw
    xs, idx = d.draw(gen, n)
    g = np.zeros(n, dtype=complex)
    # a phase that overflows gives NaN values, which make the mean NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for c, f, r, q in hits:
            for w, x in zip((c * r).tolist(), q.tolist()):
                vals = f.at(xs - x, idx)
                vals *= w
                g += vals
        est = McEstimate.of(g)
    if not math.isfinite(abs(est.value)):
        raise ValueError(f"<T_xi s, A> for A = {A!r} under {d!r} is not finite: a phase "
                         f"a (xi - q) overflows at a pair frequency q of {base!r}")
    return est


def _hits(s, A: AlgebraElement):
    """(c, f, r, q) for each term c M_f S_a of A on a pure, normal or mixed state.

    The term sends the atom at p_k to q_k = p_k - a and meets the atom j
    whose frequency is bit-equal to q_k; r holds the pairs' weights and q
    their frequencies, in the state's atom order.  A pure state u weighs a
    pair conj(c_j) c_k, rounded by ``cmul``, and a normal state rho[k, j]; a
    mixed state yields its components' hits with r scaled by their weights.
    A shift that carries an atom past the largest float raises ValueError,
    as ``apply_shift`` does, for every kind.
    """
    if isinstance(s, MixedState):
        for w, st in s.components:
            for c, f, r, q in _hits(st, A):
                yield c, f, w * r, q
        return
    if isinstance(s, PureState):
        p = sorted_p = s.vector.freqs
        amps = s.vector.amps
    elif isinstance(s, NormalState):
        p = np.array(s.support, dtype=float)
        order = np.argsort(p)
        sorted_p = p[order]
    else:
        raise TypeError(f"not a state: {s!r}")
    shifts = [a for _, _, a in A.rows]
    check_shifts(sorted_p, min(shifts, default=0.0), max(shifts, default=0.0))
    for c, f, a in A.terms:
        q = p - a
        i, hit = match(sorted_p, q)
        k = hit.nonzero()[0]
        j = i[k]
        r = cmul(amps[j].conj(), amps[k]) if isinstance(s, PureState) else s.matrix[k, order[j]]
        yield c, f, r, q[k]


def _weighted_sum(pairs, mc_samples: int):
    """Sum of weight * value over (weight, value) pairs.

    An :class:`McEstimate` value adds its variance as (|weight| stderr)^2 and
    makes the sum an :class:`McEstimate`.
    """
    total, variance, estimate = 0j, 0.0, False
    for weight, v in pairs:
        if isinstance(v, McEstimate):
            estimate = True
            variance += (abs(weight) * v.stderr) ** 2
            v = v.value
        total += weight * v
    return McEstimate(total, math.sqrt(variance), mc_samples) if estimate else total


# ---------------------------------------------------------------------------
# Shift channel T and its average


def channel_T(h: float, s: State) -> State:
    """Conjugation by the shift: rho -> S_h rho S_h*."""
    if isinstance(s, PureState):
        v = apply_shift(h, s.vector)
        if len(v) < len(s.vector):
            raise ValueError(
                f"shift {h!r} merges atoms of the state in floating point: "
                "their frequencies minus the shift round to one float")
        return PureState(v)
    if isinstance(s, NormalState):
        # a shift can round support atoms onto one float or past the largest
        try:
            return NormalState._channel_output(tuple(p - h for p in s.support), s.matrix)
        except ValueError as err:
            raise ValueError(f"shift {h!r} breaks the support of the state: {err}") from None
    if isinstance(s, MixedState):
        return MixedState(tuple((w, channel_T(h, ps)) for w, ps in s.components))
    if isinstance(s, AveragedState):
        # S_h commutes with the random shift S_xi, so T_h moves the base
        return AveragedState._of_base(channel_T(h, s.base), s.smoothing)
    raise TypeError(f"not a state: {s!r}")


def averaged_T(d: Distribution, s: State) -> State:
    """The channel average E T_xi as a lazy functional.

    A pure, normal or mixed state becomes the base as it is; a normal state
    keeps its density matrix, with no eigen-decomposition.  A discrete law
    is permitted; the result then evaluates as a finite mixture and need not
    be singular.  Stacking on an existing averaged state convolves the
    smoothing laws (used by the semigroup).  A mixture that holds an
    averaged state averages by its components: E T_xi sum w s = sum w E T_xi s.
    """
    if isinstance(s, AveragedState):
        return AveragedState._of_base(s.base, convolve(s.smoothing, d))
    if isinstance(s, MixedState) and _averaged_in(s):
        return MixedState(tuple((w, averaged_T(d, st)) for w, st in s.components))
    if isinstance(s, (PureState, NormalState, MixedState)):
        return AveragedState._of_base(s, d)
    raise TypeError(f"not a state: {s!r}")


def projector_value(
    avg: Union[AveragedState, MixedState],
    v: AtomicVector,
    method: str = "analytic",
    mc_samples: int = 10_000,
    gen: Optional[np.random.Generator] = None,
) -> float:
    """<E T_xi base, P_v> = E g(xi), where g(x) = <T_x base, P_v>.

    g is |(S_x u, v)|^2 for a pure base u, h* rho h with h_k = (S_x 1_{p_k}, v)
    for a normal base, and the weighted sum of its components' g for a
    mixed base; every overlap pairs atoms by bit-equal frequencies
    (:func:`~atomdyn.atoms.match`).  Exactly zero for continuous
    smoothing: a sampled shift never lands the (bit-exact) atom grid of the
    base on that of v, almost surely -- the defining property of a singular
    state.  Discrete smoothing may give a positive value.  ``analytic`` sums
    g over the law's atoms, and returns 0.0 at once for a law with none;
    ``mc`` averages g over ``mc_samples`` draws, in draw order.  Under a law
    with no continuous part g is the profile at the drawn atoms' locations,
    as ``analytic`` takes it, gathered by the drawn atom indices; under any
    other law it is the profile at the draws that can land an atom of the
    base on v (see ``_landed_profile``), and 0.0 at the others.  A mixture
    that holds an averaged state gives sum w_i <s_i, P_v> over its
    components, each one an averaged state or such a mixture, under either
    method; under ``mc`` each component draws from ``gen`` in turn.  A
    mixture with no averaged state in it is a base, not an averaged state.
    """
    if isinstance(avg, MixedState) and _averaged_in(avg):
        total = 0.0
        for w, st in avg.components:
            total += w * projector_value(st, v, method, mc_samples, gen)
        return total
    if not isinstance(avg, AveragedState):
        raise TypeError(f"not an averaged state: {avg!r}")
    _check_method(method, mc_samples)
    nv = norm(v)
    if abs(nv - 1.0) > _UNIT_TOL:
        raise ValueError(f"projector direction must be unit norm, got {nv!r}")
    if method == "mc":
        xs, idx = avg.smoothing.draw(gen, mc_samples)
        if idx is None:
            g = _landed_profile(avg.base, v, xs)
        else:
            # the drawn atoms alone: a normal base takes its profile in one
            # matrix product, whose rounding depends on its number of columns
            drawn = np.bincount(idx, minlength=len(xs)) > 0
            xs, idx = xs[drawn], (np.cumsum(drawn) - 1)[idx]
            g = _projector_profile(avg.base, v, xs)[idx]
        # the running sum from 0.0 in draw order; adding 0.0 turns the -0.0
        # that a leading -0.0 leaves in a sum of zeros into 0.0, as the
        # loop from 0.0 has it
        return (float(np.cumsum(g)[-1]) + 0.0) / mc_samples
    atoms = avg.smoothing.discrete_atoms()
    if not atoms:
        return 0.0
    g = _projector_profile(avg.base, v, np.array([loc for loc, _ in atoms], dtype=float))
    total = 0.0
    for (_, pr), val in zip(atoms, g.tolist()):
        total += pr * val
    # the continuous part contributes exactly zero
    return total


def _projector_profile(base, v: AtomicVector, xs: np.ndarray) -> np.ndarray:
    """g(x) = <T_x base, P_v> for every x of xs, as a float array; xs are distinct."""
    if isinstance(base, MixedState):
        return sum(w * _projector_profile(st, v, xs) for w, st in base.components)
    if isinstance(base, PureState):
        ov = shift_overlaps(base.vector, v, xs)
        # |ov| ** 2 as Python rounds it: hypot, then pow; 0.0 where nothing lands
        return np.float_power(np.hypot(ov.real, ov.imag), 2.0)
    check_draws(xs, *_atom_sets(base))
    # h_k = (S_x 1_{p_k}, v) is the amplitude of v at p_k - x
    i, hit = match(v.freqs, np.subtract.outer(np.array(base.support, dtype=float), xs))
    cols = hit.any(axis=0)
    hh = np.where(hit, v.amps[i], 0j)[:, cols]
    g = np.zeros(len(xs))
    g[cols] = np.sum(hh.conj() * (base.matrix @ hh), axis=0).real
    return g


def _landed_profile(base, v: AtomicVector, xs: np.ndarray) -> np.ndarray:
    """``_projector_profile(base, v, xs)`` bit for bit, with overlaps only where a draw lands.

    Every draw is first checked as the profile checks it.  The profile is
    then taken once per distinct draw that ``_landing`` keeps and scattered
    into zeros: at any other draw no atom of the base meets v, so g is 0.0
    there too.  A normal base's matrix product meets the same hit columns,
    so it rounds as it does on all of xs.
    """
    sets = list(_atom_sets(base))
    check_draws(xs, *sets)
    at = _landing(np.concatenate(sets), v.freqs, xs)
    g = np.zeros(len(xs))
    if at.size:
        kept, back = np.unique(xs[at], return_inverse=True)
        g[at] = _projector_profile(base, v, kept)[back]
    return g


def _atom_sets(base):
    """The sorted frequency arrays whose shifts ``_projector_profile`` checks,
    in the order of its checks."""
    if isinstance(base, MixedState):
        for _, st in base.components:
            yield from _atom_sets(st)
    elif isinstance(base, PureState):
        yield base.vector.freqs
    else:
        yield from np.array(base.support, dtype=float)[:, None]


def _landing(p: np.ndarray, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Ascending indices of a superset of the x of xs with fl(p_k - x) == q_j for some k, j.

    fl(p - x) == q puts x within (ulp(q) + ulp(c)) / 2 of c = fl(p - q).
    Each interval is taken four times that wide, which also covers the
    rounding of its ends; a c past the float range is clipped to it, and its
    interval then holds every x.  Sorted by start, with the running maximum
    of the ends, the intervals merge: a finite x lies in one when the
    running end at its last start at or below x reaches it.
    """
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        c = np.clip(np.subtract.outer(p, q), -big, big)
        w = 2.0 * (np.spacing(np.abs(c)) + np.spacing(np.abs(q)))
        lo, hi = (c - w).ravel(), (c + w).ravel()
    order = np.argsort(lo)
    # reach[j] is the running end over the first j starts; reach[0] holds no x
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(hi[order])))
    return np.flatnonzero(xs <= reach[np.searchsorted(lo[order], xs, side="right")])


def _discrete_shifts(s: AveragedState):
    """(pr, T_loc base) over the atoms (loc, pr) of the smoothing law.

    The discrete part of the smoothing as a finite mixture of shifted bases.
    """
    for loc, pr in s.smoothing.discrete_atoms():
        yield pr, channel_T(loc, s.base)


def _mass(s, fset: set) -> float:
    """<s, P_F>: the mass of s on the atoms whose frequencies are in fset."""
    if isinstance(s, PureState):
        return sum((abs(a.c) ** 2 for a in s.vector if a.p in fset), 0.0)
    if isinstance(s, NormalState):
        return sum((float(s.matrix[j, j].real)
                    for j, p in enumerate(s.support) if p in fset), 0.0)
    if not isinstance(s, (AveragedState, MixedState)):
        raise TypeError(f"not a state: {s!r}")
    parts = _discrete_shifts(s) if isinstance(s, AveragedState) else s.components
    return sum((w * _mass(st, fset) for w, st in parts), 0.0)


def normality_witness(s, family: Sequence[Sequence[float]]) -> float:
    """Best mass captured by projectors onto finite atom sets from ``family``.

    The largest <s, P_F> over the sets F of the family.  Equals 1 for
    normal-kind states whose support one set covers, and 0 for averaged
    states with continuous smoothing; the mixture of a split's parts reports
    its normal weight when one set covers the normal support.
    """
    fams = [set(fs) for fs in family]
    if not fams:
        raise ValueError("family of finite atom sets must be non-empty")
    return max(_mass(s, fset) for fset in fams)


# ---------------------------------------------------------------------------
# Modulation channel Phi and dephasing


def channel_Phi(h: float, s: NormalState) -> NormalState:
    """Conjugation by M_h, entry (j, k) times e^{ih(p_j - p_k)}: averaged_Phi of PointMass(h)."""
    return averaged_Phi(PointMass(h), s)


def averaged_Phi(d: Distribution, s: NormalState) -> NormalState:
    """Dephasing: Schur product with the kernel chi(p_j - p_k).

    The kernel is positive definite and has unit diagonal, so the output
    stays Hermitian, PSD, and trace one; off-diagonals shrink by |chi|.
    """
    if not isinstance(s, NormalState):
        raise TypeError(f"not a normal state: {s!r}")
    return NormalState._channel_output(s.support, dephasing_kernel(d, s.support) * s.matrix)


def dephasing_kernel(d: Distribution, support: Sequence[float]) -> np.ndarray:
    """The Schur multiplier matrix chi(p_j - p_k) on a frequency support.

    A difference past the float range is +-inf: a Gaussian or Cauchy chi is
    0.0 there, and any other law raises ValueError naming p_j and p_k."""
    p = np.array(support, dtype=float)
    with np.errstate(over="ignore"):
        x = p[:, None] - p[None, :]
    try:
        return d.chi(x)
    except ValueError:
        bad = np.argwhere(np.isinf(x))
        if not len(bad):
            raise
        j, k = bad[0]
        raise ValueError(f"chi of {d!r} is not finite on the support: the difference "
                         f"{p.item(j)!r} - {p.item(k)!r} overflows") from None


# ---------------------------------------------------------------------------
# Semigroups


def semigroup_T(fam: ConvolutionFamily, t: float, s: State) -> Union[State, AveragedState]:
    """T(t) = E T_{xi_t}; composing T(t) after T(s) convolves the laws."""
    if t < 0:
        raise ValueError(f"time must be non-negative: {t!r}")
    if t == 0 and not isinstance(s, AveragedState):
        return s
    return averaged_T(fam.at(t), s)


def semigroup_Phi(fam: ConvolutionFamily, t: float, s: NormalState) -> NormalState:
    """Phi(t): Schur multiplier of the family law at time t; exact semigroup."""
    if t < 0:
        raise ValueError(f"time must be non-negative: {t!r}")
    return averaged_Phi(fam.at(t), s)


# ---------------------------------------------------------------------------
# Yosida--Hewitt split


def yosida_hewitt_split(
    components: Iterable[Tuple[float, State]]
) -> Tuple[float, Optional[State], Optional[State]]:
    """Split an explicit convex combination into normal and singular parts.

    Returns (p, normal_part, singular_part), where p is the weight of the
    normal part and a part is None when it has no mass, one state, or the
    MixedState of its states; the split is the state MixedState(((p,
    normal_part), (1 - p, singular_part))) of the parts that are not None.

    An averaged state of weight w splits along the Lebesgue split of its
    law: each atom (loc, pr) puts the shifted base T_loc base, of weight
    w pr, in the normal part, and the continuous part puts the base averaged
    over ``continuous_part()``, of weight w ``continuous_weight()``, in the
    singular part.  A law with no atoms is its own continuous part, of weight 1.
    A mixture that holds an averaged state splits by its components, any
    other state goes to the normal part whole, and weight 0 is dropped.
    """
    comps = [(float(w), s) for w, s in components]
    check_weights([w for w, _ in comps], "weights")
    normal, singular = [], []
    for w, s in comps:
        _lebesgue(w, s, normal, singular)
    p = sum(w for w, _ in normal)
    # guard against float drift putting p marginally outside [0, 1]
    return min(1.0, max(0.0, p)), _part(normal, p), _part(singular, 1.0 - p)


def _lebesgue(w: float, s, normal: list, singular: list) -> None:
    """Append the (weight, state) pieces of w s to the parts of ``yosida_hewitt_split``."""
    if w == 0:
        return
    if isinstance(s, AveragedState):
        normal += [(w * pr, st) for pr, st in _discrete_shifts(s)]
        cw = s.smoothing.continuous_weight()
        if cw > 0:
            singular.append((w * cw, AveragedState(s.base, s.smoothing.continuous_part())))
    elif isinstance(s, MixedState) and _averaged_in(s):
        for v, st in s.components:
            _lebesgue(w * v, st, normal, singular)
    elif isinstance(s, (PureState, NormalState, MixedState)):
        normal.append((w, s))
    else:
        raise TypeError(f"not a state: {s!r}")


def _part(pairs: list, mass: float) -> Optional[State]:
    """None, the one state, or the MixedState of the (weight / mass, state) pairs."""
    if not pairs or mass <= 0:
        return None
    return pairs[0][1] if len(pairs) == 1 else MixedState(tuple((w / mass, st) for w, st in pairs))
