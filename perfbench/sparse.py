"""sparse-large: big atomic vectors through atoms and algebra.

A task builds two vectors of k atoms, k spread log-uniformly over
[1e2, 1e4].  Half of each vector's frequencies sit on the shared grid
(1/8) Z, so shifts by grid multiples align bit-exactly; the other half are
continuous draws.  The task then runs make_vector, norm, weyl_residual,
apply_shift, inner, a 3-term apply_element (wave, indicator over half the
frequency span, and constant, all shifted), evaluate on the normalized pure
state, and the adjoint of a 2-term element raised to a power in 4..8 applied
to an 8-atom vector.

The sizes and powers are the same for every seed: in cycle c, task i has
log10(k) = 2 + 2 (i + o_c) / 20, with o_c = 1/2, 1/4, 3/4, ... (a van der
Corput sequence), and power 4 + (i + 2c) mod 5, so that each size meets
several powers and the task times spread smoothly.  The seed draws the
frequencies, amplitudes and element data, so every seed's run does the same
amount of work and the median and tail sit at the same sizes.
"""

from __future__ import annotations

import numpy as np

import atomdyn as ad
import oracles as ref

CYCLE = 20
CYCLE_SECONDS = 5.0  # a run of S seconds does round(S / 5.0) cycles
POWERS = (4, 5, 6, 7, 8)


def _van_der_corput(i: int) -> float:
    x, denom = 0.0, 1.0
    while i:
        i, digit = divmod(i, 2)
        denom *= 2.0
        x += digit / denom
    return x


def cycle(seed: int, index: int):
    """The index-th cycle of the seed's tasks: CYCLE sizes spread over [1e2, 1e4]."""
    rng = np.random.default_rng([seed, 1, index])
    offset = _van_der_corput(index + 1)
    return [make_task(rng, int(round(10 ** (2 + 2 * (i + offset) / CYCLE))),
                      POWERS[(i + 2 * index) % len(POWERS)])
            for i in range(CYCLE)]


def _grid(rng, lo, hi, exclude_zero=True):
    """A multiple of 1/8 in [lo, hi] / 8."""
    while True:
        j = int(rng.integers(lo, hi + 1))
        if j or not exclude_zero:
            return j / 8.0


def _pairs(rng, k):
    n_grid = k // 2
    span = max(n_grid, 8)
    grid = rng.choice(np.arange(-span, span), size=n_grid, replace=False) / 8.0
    cont = rng.uniform(-span / 8.0, span / 8.0, k - n_grid)
    ps = np.concatenate([grid, cont])
    cs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return [(float(p), complex(c)) for p, c in zip(ps, cs)]


def _unit_phase(rng, modulus):
    return complex(modulus * np.exp(2j * np.pi * rng.random()))


def make_task(rng, k: int, power: int) -> dict:
    span = max(k // 2, 8) / 8.0
    # the indicator keeps half of [-span, span], wherever it sits, so that
    # apply_element does the same work at a given k for every seed
    lo = float(rng.uniform(-span, 0.0))
    hi = lo + span
    w8 = rng.choice(np.arange(-32, 33), size=8, replace=False) / 8.0
    return {
        "k": k,
        "power": power,
        "u": _pairs(rng, k),
        "v": _pairs(rng, k),
        "h": _grid(rng, -16, 16),
        "weyl": (_grid(rng, -16, 16), float(rng.uniform(0.1, 2.0))),
        # A = c1 M_wave(a) S_h1 + c2 M_ind[lo,hi] S_h2 + c3 M_const(z) S_h3
        "A": [
            ("wave", _unit_phase(rng, 0.5), _grid(rng, -16, 16), float(rng.uniform(0.1, 2.0))),
            ("indicator", _unit_phase(rng, 0.3), _grid(rng, -16, 16), (float(lo), float(hi))),
            ("const", _unit_phase(rng, 0.2), _grid(rng, -16, 16), _unit_phase(rng, 1.0)),
        ],
        # B = c1 M_wave(b) S_g1 + c2 M_ind[l,r] S_g2 with dyadic data, so that
        # every frequency in B^n stays exact and the oracle can apply B* n times
        "B": [
            ("wave", _unit_phase(rng, 0.5), _grid(rng, -8, 8), float(rng.uniform(0.1, 2.0))),
            ("indicator", _unit_phase(rng, 0.5), _grid(rng, -8, 8),
             tuple(sorted((_grid(rng, -32, 32, False), _grid(rng, -32, 32, False))))),
        ],
        "w8": [(float(p), complex(c)) for p, c in zip(
            w8, rng.normal(size=8) + 1j * rng.normal(size=8))],
    }


def _library_terms(spec):
    terms = []
    for kind, c, a, data in spec:
        if kind == "wave":
            f = ad.algebra.wave(data)
        elif kind == "indicator":
            f = ad.indicator(*data)
        else:
            f = ad.constant(data)
        terms.append((c, f, a))
    return ad.AlgebraElement.of(terms)


def _oracle_terms(spec):
    makers = {"wave": ref.wave, "indicator": lambda d: ref.indicator(*d), "const": ref.const}
    return [(c, makers[kind](data), a) for kind, c, a, data in spec]


def _as_dict(vec):
    return {atom.p: atom.c for atom in vec}


def ops(t: dict):
    """The task's operations, each with the oracle check of its result."""
    r = {}
    u_ref = ref.merged(t["u"])
    v_ref = ref.merged(t["v"])

    def build():
        r["u"] = ad.make_vector(t["u"])
        r["v"] = ad.make_vector(t["v"])
        return r["u"], r["v"]

    def check_build(value):
        return ref.check_vector(_as_dict(value[0]), u_ref) or ref.check_vector(
            _as_dict(value[1]), v_ref)

    def shift():
        r["sv"] = ad.apply_shift(t["h"], r["v"])
        return r["sv"]

    def inner_check(value):
        sv_ref = ref.shifted(v_ref, t["h"])
        return ref.check_close(
            value, ref.inner(u_ref, sv_ref),
            ref.VECTOR_TOL * max(1.0, ref.norm(u_ref) * ref.norm(sv_ref)))

    def unit_state():
        r["u1"] = (1.0 / ad.norm(r["u"])) * r["u"]
        return ad.evaluate(ad.PureState(r["u1"]), A)

    def evaluate_check(value):
        n = ref.norm(u_ref)
        u1 = {p: c / n for p, c in u_ref.items()}
        return ref.check_close(value, ref.inner(u1, ref.apply_terms(A_ref, u1)), ref.VALUE_TOL)

    def power_adjoint():
        P = B
        for _ in range(t["power"] - 1):
            P = ad.compose(P, B)
        return ad.apply_element(ad.adjoint(P), ad.make_vector(t["w8"]))

    def power_check(value):
        want = ref.merged(t["w8"])
        for _ in range(t["power"]):
            want = ref.apply_adjoint_terms(B_ref, want)
        return ref.check_vector(_as_dict(value), want, ref.VALUE_TOL)

    A = _library_terms(t["A"])
    A_ref = _oracle_terms(t["A"])
    B = _library_terms(t["B"])
    B_ref = _oracle_terms(t["B"])
    h_w, a_w = t["weyl"]
    return [
        ("make_vector", build, check_build),
        ("norm", lambda: ad.norm(r["u"]),
         lambda value: ref.check_close(value, ref.norm(u_ref), ref.VECTOR_TOL * ref.norm(u_ref))),
        ("weyl", lambda: ad.weyl_residual(h_w, a_w, r["u"]), ref.check_weyl),
        ("apply_shift", shift,
         lambda value: ref.check_vector(_as_dict(value), ref.shifted(v_ref, t["h"]))),
        ("inner", lambda: ad.inner(r["u"], r["sv"]), inner_check),
        ("apply_element", lambda: ad.apply_element(A, r["u"]),
         lambda value: ref.check_vector(_as_dict(value), ref.apply_terms(A_ref, u_ref))),
        ("evaluate.pure", unit_state, evaluate_check),
        ("power_adjoint", power_adjoint, power_check),
    ]
