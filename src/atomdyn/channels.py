"""Quantum states over the atomic-vector algebra and their channels.

States are positive unital functionals on the normal-form operator algebra
of :mod:`atomdyn.algebra`.  Four representations are executable:

* pure       -- a unit atomic vector u, acting by (u, A u);
* normal     -- a finite density matrix rho over a frequency support,
                acting by tr(rho A);
* mixed      -- a finite convex combination of pure states;
* averaged   -- a base state smoothed by a random shift: the functional
                A -> E <T_xi base, A>, kept *intensionally* as the pair
                (base, law).  When the law is continuous this functional
                vanishes on every finite-rank projector (it is singular),
                so no matrix can represent it.

Channels: T_h conjugates by the shift S_h, Phi_h by the modulation M_h.
Averaging Phi over a law multiplies density-matrix entries by
chi(p_j - p_k) (Schur product with a positive-definite kernel), which
preserves normality; averaging T over a continuous law destroys it.
One-parameter convolution families turn both into semigroups.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .atoms import AtomicVector, inner, make_vector, norm
from .algebra import (
    AlgebraElement,
    Function,
    Multiplier,
    apply_element,
    apply_shift,
    shift_overlaps,
)
from .rand import Distribution, ConvolutionFamily, convolve

_UNIT_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_TOL = 1e-10
_EIG_CUT = 1e-14
# Gauss rule orders; "analytic" accepts the higher one only when both agree
GAUSS_ORDERS = (64, 128)
_RULE_TOL = 1e-9


# ---------------------------------------------------------------------------
# State representations


@dataclass(frozen=True)
class PureState:
    vector: AtomicVector

    def __post_init__(self):
        n = norm(self.vector)
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"pure state vector must be unit norm, got {n!r}")


@dataclass(frozen=True)
class NormalState:
    """Density matrix over a finite frequency support.

    Entry (j, k) is the coefficient of |1_{p_j}><1_{p_k}|.  ``evaluate``
    reads the matrix directly as tr(rho A); the eigen-decomposition of
    :meth:`spectral_mixture` is needed only to average the state under
    ``averaged_T``.
    """

    support: Tuple[float, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        k = len(self.support)
        if not all(math.isfinite(p) for p in self.support):
            raise ValueError("support frequencies must be finite")
        if len(set(self.support)) != k:
            raise ValueError("support frequencies must be distinct")
        if m.shape != (k, k):
            raise ValueError(f"matrix shape {m.shape} does not match support size {k}")
        if np.max(np.abs(m - m.conj().T), initial=0.0) > _HERM_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > _UNIT_TOL:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(m)!r}")
        if k and np.linalg.eigvalsh(m).min() < -_PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")

    def spectral_mixture(self) -> "MixedState":
        """Eigen-decomposition as a convex combination of pure states.

        Runs ``eigh``, drops eigenvalues <= 1e-14 and renormalizes the rest.
        Only ``averaged_T`` of a normal state calls it, since an averaged
        state keeps a pure or mixed base.
        """
        w, vecs = np.linalg.eigh(self.matrix)
        comps = []
        for i in range(len(w)):
            if w[i] > _EIG_CUT:
                v = make_vector(
                    [(p, vecs[j, i]) for j, p in enumerate(self.support)]
                )
                v = (1.0 / norm(v)) * v
                comps.append((float(w[i]), PureState(v)))
        total = sum(c for c, _ in comps)
        return MixedState(tuple((c / total, s) for c, s in comps))


@dataclass(frozen=True)
class MixedState:
    components: Tuple[Tuple[float, PureState], ...]

    def __post_init__(self):
        ws = [w for w, _ in self.components]
        if any(w < 0 for w in ws):
            raise ValueError("mixture weights must be non-negative")
        if abs(sum(ws) - 1.0) > _UNIT_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {sum(ws)!r}")


@dataclass(frozen=True)
class AveragedState:
    """Lazy functional A -> E <T_xi base, A>; singular when smoothing is continuous."""

    base: Union[PureState, MixedState]
    smoothing: Distribution

    @property
    def is_singular(self) -> bool:
        return not self.smoothing.has_discrete_part


State = Union[PureState, NormalState, MixedState, AveragedState]


@dataclass(frozen=True)
class StateDecomposition:
    """Convex split into a normal aggregate and a singular aggregate.

    ``normal_weight`` is the total mass p of the normal part; the parts are
    stored as internally normalized (weight, state) tuples.
    """

    normal_weight: float
    normal_components: Tuple[Tuple[float, State], ...]
    singular_components: Tuple[Tuple[float, AveragedState], ...]

    def __post_init__(self):
        p = self.normal_weight
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"normal weight must lie in [0, 1]: {p!r}")
        if p == 1.0 and self.singular_components:
            raise ValueError("weight 1 admits no singular part")
        if p == 0.0 and self.normal_components:
            raise ValueError("weight 0 admits no normal part")

    @property
    def normal_part(self):
        return _aggregate(self.normal_components)

    @property
    def singular_part(self):
        return _aggregate(self.singular_components)


def _aggregate(components):
    if not components:
        return None
    if len(components) == 1:
        return components[0][1]
    if all(isinstance(s, PureState) for _, s in components):
        return MixedState(tuple(components))
    return components


# ---------------------------------------------------------------------------
# Expectations E f(xi - x) over a smoothing law


class McEstimate(NamedTuple):
    value: complex
    stderr: float
    samples: int


class QuadratureError(ArithmeticError):
    """Two Gauss rule orders disagree: the expectation is not resolved."""


def _check_method(method: str, mc_samples: int) -> None:
    if method not in ("analytic", "quadrature", "mc"):
        raise ValueError(f"unknown expectation method: {method!r}")
    if method == "mc" and mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples!r}")


def expect_function(
    d: Distribution,
    f: Function,
    x: float,
    method: str = "analytic",
    mc_samples: int = 100_000,
    gen: Optional[np.random.Generator] = None,
):
    """E f(xi - x) for xi ~ d.

    ``analytic`` takes one of three paths and never returns a silent
    approximation:

    * closed form -- a :class:`Multiplier` c e^{iay} on the whole line gives
      c e^{-iax} chi(a) under any law; otherwise the discrete part is a
      finite sum, and on the continuous part a constant c on [lo, hi] is c
      times a cdf difference;
    * Gauss rule -- any other multiplier is integrated against the
      continuous part by the law's rule (Gauss-Hermite for Gaussian,
      Gauss-Legendre for Uniform, Gauss-Legendre in theta for Cauchy with
      y = gamma tan theta) at the two orders of ``GAUSS_ORDERS``, over the
      multiplier's interval [lo + x, hi + x] (the whole line for an opaque
      :class:`BoundedFunction`).  The higher order is returned when the two
      agree within 1e-9;
    * error -- :class:`QuadratureError` when they do not, and
      NotImplementedError when the law has no rule.

    ``quadrature`` sums the discrete part and applies the higher-order rule
    to the continuous part with no closed forms, whatever its accuracy.
    Its weights are positive, but a multiplier with a finite interval gets
    its own nodes, so values of positive operators are non-negative only up
    to the rule's error; ``test_positivity`` checks that they stay so.
    ``mc`` returns an :class:`McEstimate` with the standard error of the
    sample mean.
    """
    _check_method(method, mc_samples)
    if method == "mc":
        if gen is None:
            raise ValueError("mc evaluation needs a generator")
        vals = f.at(d.sample(gen, mc_samples) - x)
        mean = complex(vals.mean())
        var = float(np.mean(np.abs(vals - mean) ** 2))
        stderr = math.sqrt(var / mc_samples)
        return McEstimate(mean, stderr, mc_samples)
    if (method == "analytic" and isinstance(f, Multiplier)
            and f.lo == -math.inf and f.hi == math.inf):
        return f.c * cmath.exp(-1j * f.a * x) * d.chi(f.a) if f.a else f.c

    total = 0j
    for loc, pr in d.discrete_atoms():
        total += pr * complex(f(loc - x))
    cw = d.continuous_weight()
    if cw > 0:
        total += cw * _expect_continuous(d, f, x, method)
    return total


def _expect_continuous(d, f, x, method):
    lo, hi = -math.inf, math.inf
    if isinstance(f, Multiplier):
        lo, hi = f.lo + x, f.hi + x
        if method == "analytic" and not f.a:
            # c P(lo <= xi <= hi)
            try:
                return f.c * complex(d.cdf(hi) - d.cdf(lo))
            except NotImplementedError:
                pass
    orders = GAUSS_ORDERS if method == "analytic" else GAUSS_ORDERS[-1:]
    values = []
    for n in orders:
        ys, ws = d.gauss_rule(n, lo, hi)
        values.append(complex(np.dot(ws, f.at(ys - x))))
    if abs(values[-1] - values[0]) > _RULE_TOL:
        raise QuadratureError(
            f"E f(xi - x) for f = {f!r}, x = {x!r} under {d!r} is unresolved: "
            f"Gauss rules of orders {orders} give {values[0]!r} and {values[-1]!r}"
        )
    return values[-1]


# ---------------------------------------------------------------------------
# Evaluation <state, A>


def _pure_components(base: Union[PureState, MixedState]):
    if isinstance(base, PureState):
        return ((1.0, base),)
    return base.components


def evaluate(
    s,
    A: AlgebraElement,
    method: str = "analytic",
    mc_samples: int = 100_000,
    gen: Optional[np.random.Generator] = None,
):
    """Value of the functional s on the normal-form operator A.

    A pure state gives (u, A u) and a mixed state the weighted sum over its
    components.  A normal state gives tr(rho A) from its matrix, with no
    eigen-decomposition: each term of A pairs support atoms by bit-equal
    frequencies, as ``apply_shift`` does, so the value agrees with that of
    the spectral mixture up to rounding.  These kinds are exact and ignore
    ``mc_samples`` and ``gen``.

    Averaged states take expectations over the smoothing law by ``method``
    (see :func:`expect_function`).  Under ``mc`` each expectation draws
    ``mc_samples`` shifts from ``gen`` and the value is an
    :class:`McEstimate`: the weighted values add, the variances add as
    (|weight| stderr)^2, and ``samples`` is the per-expectation count.  A
    :class:`StateDecomposition` combines its parts the same way, so it
    returns an :class:`McEstimate` under ``mc`` when it has a singular part.
    ``method`` must be ``analytic``, ``quadrature`` or ``mc`` for every kind.
    """
    _check_method(method, mc_samples)
    if isinstance(s, PureState):
        return inner(s.vector, apply_element(A, s.vector))
    if isinstance(s, NormalState):
        return _evaluate_normal(s, A)
    if isinstance(s, AveragedState):
        return _weighted_sum(
            _averaged_terms(s, A, method, mc_samples, gen), mc_samples, method == "mc"
        )
    if isinstance(s, MixedState):
        parts = s.components
    elif isinstance(s, StateDecomposition):
        p = s.normal_weight
        parts = [(p * w, st) for w, st in s.normal_components]
        parts += [((1.0 - p) * w, st) for w, st in s.singular_components]
    else:
        raise TypeError(f"not a state: {s!r}")
    return _weighted_sum(
        ((w, evaluate(st, A, method, mc_samples, gen)) for w, st in parts), mc_samples
    )


def _weighted_sum(pairs, mc_samples: int, estimate: bool = False):
    """Sum of weight * value over (weight, value) pairs.

    An :class:`McEstimate` value adds its variance as (|weight| stderr)^2 and
    makes the sum an :class:`McEstimate`; so does ``estimate``.
    """
    total = 0j
    variance = 0.0
    for weight, v in pairs:
        if isinstance(v, McEstimate):
            estimate = True
            total += weight * v.value
            variance += (abs(weight) * v.stderr) ** 2
        else:
            total += weight * v
    return McEstimate(total, math.sqrt(variance), mc_samples) if estimate else total


def _evaluate_normal(s: NormalState, A: AlgebraElement) -> complex:
    """tr(rho A), term by term on the matrix.

    A term c M_f S_a sends the support atom at p_k to q_k = p_k - a (the
    subtraction of ``apply_shift``) and meets the atom j whose frequency is
    bit-equal to q_k, contributing c rho[k, j] f(q_k).
    """
    p = np.array(s.support, dtype=float)
    order = np.argsort(p)
    sorted_p = p[order]
    total = 0j
    for c, f, a in A.terms:
        if not math.isfinite(a):
            raise ValueError(f"non-finite shift: {a!r}")
        q = p - a
        i = np.minimum(np.searchsorted(sorted_p, q), len(p) - 1)
        k = np.flatnonzero(sorted_p[i] == q)
        total += c * complex(np.dot(s.matrix[k, order[i[k]]], f.at(q[k])))
    return total


def _averaged_terms(s: AveragedState, A: AlgebraElement, method, mc_samples, gen):
    """(weight, E f(xi - p_j)) pairs whose weighted sum is E <T_xi base, A>.

    For a term c M_f S_a the pairs of base atoms with p_j = p_k - a
    contribute conj(c_j) c_k E f(xi - p_j); the random shift cancels for
    the pairing itself (shift-evaluation invariance) and survives only
    inside the multiplier argument.
    """
    for w, ps in _pure_components(s.base):
        u = ps.vector
        for c, f, a in A.terms:
            shifted = {b.p: b.c for b in apply_shift(a, u)}
            for atom_j in u:
                ck = shifted.get(atom_j.p, 0j)
                if ck != 0:
                    yield w * c * atom_j.c.conjugate() * ck, expect_function(
                        s.smoothing, f, atom_j.p, method, mc_samples, gen
                    )


# ---------------------------------------------------------------------------
# Shift channel T and its average


def channel_T(h: float, s: State) -> State:
    """Conjugation by the shift: rho -> S_h rho S_h*."""
    if isinstance(s, PureState):
        return PureState(apply_shift(h, s.vector))
    if isinstance(s, NormalState):
        return NormalState(tuple(p - h for p in s.support), s.matrix)
    if isinstance(s, MixedState):
        return MixedState(
            tuple((w, PureState(apply_shift(h, ps.vector))) for w, ps in s.components)
        )
    if isinstance(s, AveragedState):
        raise TypeError(
            "shift channels compose with averaged states through semigroup_T"
        )
    raise TypeError(f"not a state: {s!r}")


def averaged_T(d: Distribution, s: State) -> AveragedState:
    """The channel average E T_xi as a lazy functional.

    A discrete law is permitted; the result then evaluates as a finite
    mixture and need not be singular.  Stacking on an existing averaged
    state convolves the smoothing laws (used by the semigroup).
    """
    if isinstance(s, NormalState):
        return AveragedState(s.spectral_mixture(), d)
    if isinstance(s, AveragedState):
        return AveragedState(s.base, convolve(s.smoothing, d))
    if isinstance(s, (PureState, MixedState)):
        return AveragedState(s, d)
    raise TypeError(f"not a state: {s!r}")


def projector_value(
    avg: AveragedState,
    v: AtomicVector,
    method: str = "analytic",
    mc_samples: int = 10_000,
    gen: Optional[np.random.Generator] = None,
) -> float:
    """<E T_xi base, P_v> = E |(S_xi u, v)|^2.

    Exactly zero for continuous smoothing: a sampled shift never lands the
    (bit-exact) atom grid of u on that of v, almost surely -- the defining
    property of a singular state.  Discrete smoothing sums over the law's
    atoms and may be positive.  Both methods take (S_x u, v) from
    :func:`~atomdyn.algebra.shift_overlaps`: ``analytic`` at the law's atoms,
    ``mc`` at ``mc_samples`` draws; ``quadrature`` is ``analytic``.
    """
    _check_method(method, mc_samples)
    nv = norm(v)
    if abs(nv - 1.0) > _UNIT_TOL:
        raise ValueError(f"projector direction must be unit norm, got {nv!r}")
    if method == "mc":
        if gen is None:
            raise ValueError("mc evaluation needs a generator")
        total = 0.0
        for w, ps in _pure_components(avg.base):
            overlaps = shift_overlaps(ps.vector, v, avg.smoothing.sample(gen, mc_samples))
            acc = 0.0
            for ov in overlaps[overlaps != 0]:
                acc += abs(complex(ov)) ** 2
            total += w * acc / mc_samples
        return total
    atoms = avg.smoothing.discrete_atoms()
    locs = np.array([loc for loc, _ in atoms], dtype=float)
    total = 0.0
    for w, ps in _pure_components(avg.base):
        overlaps = shift_overlaps(ps.vector, v, locs)
        for (_, pr), ov in zip(atoms, overlaps):
            total += w * pr * abs(complex(ov)) ** 2
    # the continuous part contributes exactly zero
    return total


def _discrete_shifts(s: AveragedState):
    """(w pr, S_loc u) over the base components (w, u) and the law's atoms (loc, pr).

    The discrete part of the smoothing as a finite mixture of shifted bases.
    """
    atoms = s.smoothing.discrete_atoms()
    for w, ps in _pure_components(s.base):
        for loc, pr in atoms:
            yield w * pr, apply_shift(loc, ps.vector)


def _mass(u: AtomicVector, fset: set) -> float:
    """Squared norm of u on the frequencies of fset."""
    return sum(abs(a.c) ** 2 for a in u if a.p in fset)


def normality_witness(s, family: Sequence[Sequence[float]]) -> float:
    """Best mass captured by projectors onto finite atom sets from ``family``.

    Equals 1 for normal-kind states whose support the family covers, and 0
    for averaged states with continuous smoothing; a convex split reports
    its normal weight when the family covers the normal support.
    """
    fams = [set(fs) for fs in family]
    if not fams:
        raise ValueError("family of finite atom sets must be non-empty")
    if isinstance(s, NormalState):
        return max(
            sum(
                (float(s.matrix[j, j].real)
                 for j, p in enumerate(s.support)
                 if p in fset),
                0.0,
            )
            for fset in fams
        )
    if isinstance(s, StateDecomposition):
        p = s.normal_weight
        wn = sum(
            w * normality_witness(st, family) for w, st in s.normal_components
        )
        ws = sum(
            w * normality_witness(st, family) for w, st in s.singular_components
        )
        return p * wn + (1.0 - p) * ws
    if isinstance(s, PureState):
        mix = [(1.0, s.vector)]
    elif isinstance(s, MixedState):
        mix = [(w, ps.vector) for w, ps in s.components]
    elif isinstance(s, AveragedState):
        mix = list(_discrete_shifts(s))
    else:
        raise TypeError(f"not a state: {s!r}")
    return max(sum((w * _mass(u, fset) for w, u in mix), 0.0) for fset in fams)


# ---------------------------------------------------------------------------
# Modulation channel Phi and dephasing


def channel_Phi(h: float, s: NormalState) -> NormalState:
    """Conjugation by the modulation: entry (j, k) gains e^{ih(p_j - p_k)}."""
    p = np.array(s.support)
    phases = np.exp(1j * h * (p[:, None] - p[None, :]))
    return NormalState(s.support, phases * s.matrix)


def averaged_Phi(d: Distribution, s: NormalState) -> NormalState:
    """Dephasing: Schur product with the kernel chi(p_j - p_k).

    The kernel is positive definite and has unit diagonal, so the output
    stays Hermitian, PSD, and trace one; off-diagonals shrink by |chi|.
    """
    return NormalState(s.support, dephasing_kernel(d, s.support) * s.matrix)


def dephasing_kernel(d: Distribution, support: Sequence[float]) -> np.ndarray:
    """The Schur multiplier matrix chi(p_j - p_k) on a frequency support.

    chi is called once per distinct difference: a support of m points drawn
    from an evenly spaced grid of K points costs at most 2K - 1 calls, not
    m^2.
    """
    p = np.array(support, dtype=float)
    diffs, where = np.unique((p[:, None] - p[None, :]).ravel(), return_inverse=True)
    values = np.array([d.chi(float(delta)) for delta in diffs], dtype=complex)
    return values[where].reshape(len(p), len(p))


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
    components: Iterable[Tuple[float, object]]
) -> StateDecomposition:
    """Split an explicit convex combination into normal and singular parts.

    Averaged states with purely discrete smoothing evaluate as finite
    mixtures and therefore land in the normal bucket.
    """
    comps = [(float(w), s) for w, s in components]
    if any(w < 0 for w, _ in comps):
        raise ValueError("weights must be non-negative")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > _UNIT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")

    normal: list[Tuple[float, object]] = []
    singular: list[Tuple[float, AveragedState]] = []
    for w, s in comps:
        if w == 0:
            continue
        if isinstance(s, AveragedState) and s.is_singular:
            singular.append((w, s))
        elif isinstance(s, AveragedState):
            mix = tuple((wp, PureState(u)) for wp, u in _discrete_shifts(s))
            normal.append((w, MixedState(mix)))
        elif isinstance(s, (PureState, NormalState, MixedState)):
            normal.append((w, s))
        else:
            raise TypeError(f"not a state: {s!r}")

    p = sum(w for w, _ in normal)
    nn = tuple((w / p, s) for w, s in normal) if p > 0 else ()
    q = 1.0 - p
    ss = tuple((w / q, s) for w, s in singular) if q > 0 else ()
    # guard against float drift putting p marginally outside [0, 1]
    p = min(1.0, max(0.0, p))
    return StateDecomposition(p, nn, ss)
