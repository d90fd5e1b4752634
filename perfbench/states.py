"""state-eval: small states through channels and rand.

A task draws one state -- pure or mixed (at most 8 atoms), normal (m in
8, 64, 200) or averaged (a 4-atom pure base smoothed by one of five laws) -- and
evaluates a fixed probe set on it: a shift, an indicator multiplier, a wave
modulation and one composed element.  Normal states also go through
averaged_Phi and semigroup_Phi; averaged states also get the exact
shift-invariance check, projector_value (analytic, and Monte Carlo with
1e4 samples) and one Monte Carlo expect_function with 1e5 samples.

Tasks come in cycles with a fixed mix (MIX), and the laws and families of
normal states rotate with the cycle, so every seed's run holds the same
kinds of task; the seed draws the states, probes and law parameters and the
order within a cycle.  The mix keeps the inputs
that expose known defects at their natural share: averaged states under
Cauchy smoothing (quadrature on a wave) and under the Rademacher+Gaussian
mixture (a law with both a discrete and a continuous part).
"""

from __future__ import annotations

import numpy as np

import atomdyn as ad
import oracles as ref
from atomdyn import channels

LAWS = ("gaussian", "cauchy", "uniform", "rademacher", "mixture")
MIX = (
    ["pure"] * 3 + ["mixed"] * 2 + ["normal8"] * 2 + ["normal64"] * 2 + ["normal200"]
    + [f"averaged.{law}" for law in LAWS for _ in range(2)]
)
# averaged bases have a fixed size: their cost (quadrature per atom pair under
# Cauchy smoothing) then varies little between seeds, which keeps the median
# and tail of a run steady
AVERAGED_ATOMS = 4
CYCLE_SECONDS = 4.0  # a run of S seconds does round(S / 4.0) cycles
PROJECTOR_MC = 10_000
EXPECT_MC = 100_000


def cycle(seed: int, index: int):
    rng = np.random.default_rng([seed, 2, index])
    return [make_task(rng, MIX[j], index + j) for j in rng.permutation(len(MIX))]


def _law(rng, name):
    if name == "rademacher":
        return ("rademacher",)
    if name == "uniform":
        w = float(rng.uniform(0.5, 2.0))
        return ("uniform", -w, w)
    return (name, float(rng.uniform(0.5, 2.0)))


def library_law(law):
    kind = law[0]
    if kind == "gaussian":
        return ad.Gaussian(law[1])
    if kind == "cauchy":
        return ad.Cauchy(law[1])
    if kind == "uniform":
        return ad.Uniform(law[1], law[2])
    if kind == "rademacher":
        return ad.Rademacher()
    return ad.FiniteMixture(((0.5, ad.Rademacher()), (0.5, ad.Gaussian(law[1]))))


def _grid_vector(rng, n=None):
    """n (default 1..8) atoms on the grid (1/4) Z, so shifts by grid steps pair atoms up."""
    n = int(rng.integers(1, 9)) if n is None else n
    ps = rng.choice(np.arange(-16, 17), size=n, replace=False) / 4.0
    cs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [(float(p), complex(c)) for p, c in zip(ps, cs)]


def make_task(rng, kind: str, slot: int = 0) -> dict:
    """A task of `kind`; a normal state's law and family are LAWS[slot % 5], slot % 2."""
    lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
    step = lambda: float(rng.choice([-1, 1]) * rng.integers(1, 9)) / 4.0  # noqa: E731
    t = {
        "kind": kind,
        "probes": {
            "shift": step(),
            "indicator": (float(lo), float(hi)),
            "wave": float(rng.uniform(0.2, 2.0)),
            "composed": (step(), float(rng.uniform(0.2, 2.0))),
        },
        "seed": int(rng.integers(2**31)),
    }
    if kind == "pure":
        t["vector"] = _grid_vector(rng)
    elif kind == "mixed":
        n = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(n))
        t["components"] = [(float(x), _grid_vector(rng)) for x in w / w.sum()]
    elif kind.startswith("normal"):
        m = int(kind[len("normal"):])
        support = np.sort(rng.choice(np.arange(-m, m + 1), size=m, replace=False) / 4.0)
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        rho = g @ g.conj().T
        t["support"] = tuple(float(p) for p in support)
        t["matrix"] = rho / np.trace(rho).real
        t["phi_law"] = _law(rng, LAWS[slot % len(LAWS)])
        t["family"] = ("gaussian", "cauchy")[slot % 2]
        t["t"] = float(rng.uniform(0.05, 2.0))
    else:
        t["vector"] = _grid_vector(rng, AVERAGED_ATOMS)
        t["law"] = _law(rng, kind.split(".", 1)[1])
    return t


# ---------------------------------------------------------------------------
# probes: library elements and their oracle counterparts


def _probe_elements(p):
    h2, b2 = p["composed"]
    return {
        "shift": ad.AlgebraElement.shift(p["shift"]),
        "indicator": ad.AlgebraElement.mult(ad.indicator(*p["indicator"])),
        "wave": ad.AlgebraElement.modulation(p["wave"]),
        "composed": ad.compose(ad.AlgebraElement.shift(h2), ad.AlgebraElement.modulation(b2)),
    }


def _probe_terms(p):
    """Each probe as oracle terms (c, f, a) plus E f(xi - x) for a law."""
    h2, b2 = p["composed"]
    b = p["wave"]
    lo, hi = p["indicator"]
    return {
        "shift": ([(1.0, ref.one, p["shift"])], lambda law, x: 1.0),
        "indicator": ([(1.0, ref.indicator(lo, hi), 0.0)],
                      lambda law, x: ref.expect_indicator(law, lo, hi, x)),
        "wave": ([(1.0, ref.wave(b), 0.0)], lambda law, x: ref.expect_wave(law, b, x)),
        "composed": ([(1.0, lambda y: ref.wave(b2)(y + h2), h2)],
                     lambda law, x: ref.expect_wave(law, b2, x - h2)),
    }


def _unit(pairs):
    v = ref.merged(pairs)
    n = ref.norm(v)
    return {p: c / n for p, c in v.items()}


def _pure_value(terms, u):
    return ref.inner(u, ref.apply_terms(terms, u))


def _averaged_value(terms, expect, law, u):
    """sum over atom pairs p_j = p_k - a of conj(c_j) c_k c E f(xi - p_j)."""
    total = 0j
    for c, _, a in terms:
        su = ref.shifted(u, a)
        for p, cj in u.items():
            if p in su:
                total += c * cj.conjugate() * su[p] * expect(law, p)
    return total


def _normal_value(terms, support, rho):
    index = {p: j for j, p in enumerate(support)}
    a = np.zeros((len(support), len(support)), dtype=complex)
    for c, f, shift in terms:
        for k, p in enumerate(support):
            j = index.get(p - shift)
            if j is not None:
                a[j, k] += c * f(p - shift)
    return complex(np.sum(rho.T * a))


def _kernel_matrix(law, support, rho):
    p = np.asarray(support)
    d = p[:, None] - p[None, :]
    kernel = np.vectorize(lambda x: ref.chi(law, float(x)), otypes=[complex])(d)
    return kernel * rho


def _projector_direction(u):
    p0 = min(u)
    return [(p0 - 1.0, 0.6), (p0 + 1.0, 0.8)]


def _unit_vector(pairs):
    v = ad.make_vector(pairs)
    return (1.0 / ad.norm(v)) * v


# ---------------------------------------------------------------------------
# tasks


def ops(t: dict):
    kind = t["kind"]
    probes = t["probes"]
    terms = _probe_terms(probes)
    r = {}
    out = []

    if kind in ("pure", "mixed"):
        if kind == "pure":
            comps = [(1.0, t["vector"])]
        else:
            comps = t["components"]
        refs = [(w, _unit(pairs)) for w, pairs in comps]

        def build():
            states = [(w, ad.PureState(_unit_vector(pairs))) for w, pairs in comps]
            r["s"] = states[0][1] if kind == "pure" else ad.MixedState(tuple(states))
            return _probe_elements(probes)

        for name in ("shift", "indicator", "wave", "composed"):
            want = lambda name=name: sum(  # noqa: E731
                (w * _pure_value(terms[name][0], u) for w, u in refs), 0j)
            out.append(_evaluate_op(kind, name, r, build if name == "shift" else None, want))
        return out

    if kind.startswith("normal"):
        support, rho = t["support"], t["matrix"]

        def build():
            r["s"] = ad.NormalState(support, rho)
            return _probe_elements(probes)

        for name in ("shift", "indicator", "wave", "composed"):
            want = lambda name=name: _normal_value(terms[name][0], support, rho)  # noqa: E731
            out.append(_evaluate_op(kind, name, r, build if name == "shift" else None, want))
        law = t["phi_law"]
        fam_law = (t["family"], t["t"])
        out.append((f"{kind}.averaged_Phi",
                    lambda: ad.averaged_Phi(library_law(law), r["s"]).matrix,
                    lambda m: ref.check_matrix(m, _kernel_matrix(law, support, rho))))
        out.append((f"{kind}.semigroup_Phi",
                    lambda: ad.semigroup_Phi(ad.ConvolutionFamily(t["family"]), t["t"],
                                             r["s"]).matrix,
                    lambda m: ref.check_matrix(m, _kernel_matrix(fam_law, support, rho))))
        return out

    # averaged states
    law = t["law"]
    u = _unit(t["vector"])

    def build():
        r["law"] = library_law(law)
        r["base"] = ad.PureState(_unit_vector(t["vector"]))
        r["s"] = ad.averaged_T(r["law"], r["base"])
        return _probe_elements(probes)

    for name in ("shift", "indicator", "wave", "composed"):
        want = lambda name=name: _averaged_value(*terms[name], law, u)  # noqa: E731
        out.append(_evaluate_op(kind, name, r, build if name == "shift" else None, want))

    out.append((f"{kind}.shift_invariance",
                lambda: (r["value.shift"], ad.evaluate(r["base"], r["elements"]["shift"])),
                lambda pair: ref.check_exact(pair[0], pair[1])))

    v_pairs = _projector_direction(u)
    v_ref = _unit(v_pairs)
    overlaps = [(pr, abs(ref.inner(ref.shifted(u, loc), v_ref)) ** 2)
                for loc, pr in ref.atoms(law)]
    exact = sum(pr * g for pr, g in overlaps)

    def projector_check(value):
        if not ref.atoms(law):
            return ref.check_exact(value, 0.0)
        return ref.check_close(value, exact, ref.VALUE_TOL)

    def projector_mc_check(value):
        if not ref.atoms(law):
            return ref.check_exact(value, 0.0)
        var = sum(pr * g * g for pr, g in overlaps) - exact ** 2
        return ref.check_mc(value, (max(var, 0.0) / PROJECTOR_MC) ** 0.5, exact)

    def projector_mc():
        gen = ad.SeededRng(t["seed"]).stream(0)
        return ad.projector_value(r["s"], r["v"], method="mc", mc_samples=PROJECTOR_MC, gen=gen)

    def projector():
        r["v"] = _unit_vector(v_pairs)
        return ad.projector_value(r["s"], r["v"])

    x = min(u)
    b = probes["wave"]

    def expect_mc():
        gen = ad.SeededRng(t["seed"]).stream(1)
        return channels.expect_function(r["law"], ad.algebra.wave(b), x, method="mc",
                                        mc_samples=EXPECT_MC, gen=gen)

    out += [
        (f"{kind}.projector", projector, projector_check),
        (f"{kind}.projector_mc", projector_mc, projector_mc_check),
        (f"{kind}.expect_mc", expect_mc,
         lambda est: ref.check_mc(est.value, est.stderr, ref.expect_wave(law, b, x))),
    ]
    return out


def _evaluate_op(kind, name, r, build, want):
    """evaluate(state, probe); the first probe also builds the state and probes."""

    def run():
        if build is not None:
            r["elements"] = build()
        value = ad.evaluate(r["s"], r["elements"][name])
        r[f"value.{name}"] = value
        return value

    return (f"{kind}.{name}", run, lambda value: ref.check_close(value, want(), ref.VALUE_TOL))
