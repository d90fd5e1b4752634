"""Operator random walks and the Chernoff product limit.

Take i.i.d. steps xi_1, ..., xi_n and modulate an atomic vector by the
running sum scaled by sqrt(t/n).  Averaging one step multiplies each atom
at frequency p by chi(sqrt(t/n) p), where chi is the characteristic
function of the step law; n averaged steps multiply by chi(...)^n.  For a
centered law with variance D that power converges to the Gaussian
multiplier e^{-t D p^2 / 2} at rate O(1/n).
"""

import numpy as np

from atomdyn import (
    Gaussian,
    Rademacher,
    SeededRng,
    chernoff_error,
    expected_walk_apply,
    make_vector,
    norm,
    random_walk_apply,
    unit_atom,
)

rng = SeededRng(2026)
law = Rademacher()          # steps +1 / -1 with equal probability
t, p = 1.0, 2.0

# One sampled walk is unitary: only phases move, norms do not.
u = make_vector([(1.0, 0.8), (2.0, 0.6j)])
w = random_walk_apply(law, t, 64, rng.stream(0), u)
print(f"sampled 64-step walk: ||u|| = {norm(u):.12f}, ||walk(u)|| = {norm(w):.12f}")

# The averaged walk contracts each atom deterministically.
for n in (1, 8, 64):
    v = expected_walk_apply(law, t, n, unit_atom(p))
    print(f"averaged walk, n = {n:>3}: amplitude at p={p} -> {v.amplitude(p).real:.6f}")
# Gaussian steps of the same variance give the limit multiplier in one step.
limit = expected_walk_apply(Gaussian(law.variance), t, 1, unit_atom(p))
print(f"Gaussian multiplier limit:          -> {limit.amplitude(p).real:.6f}")

# Quantify the O(1/n) rate over a probe grid of frequencies.
probes = [0.5, 1.0, 2.0, 3.0]
print("\nsup error of chi(sqrt(t/n) p)^n vs e^(-t D p^2 / 2):")
prev = None
for n in (10, 100, 1000, 10000):
    err = chernoff_error(law, t, n, probes)
    rate = f"  rate {np.log2(prev / err) / np.log2(10):.2f} per decade" if prev else ""
    print(f"  n = {n:>6}: {err:.3e}{rate}")
    prev = err

# A Gaussian step law is a fixed point: chi^n already equals the limit.
print(f"\nGaussian law, n = 7: error {chernoff_error(Gaussian(1.5), t, 7, probes):.2e}")

# Monte Carlo check of the n = 1 average against 100k sampled walks.
n_mc = 100_000
xs = law.sample(rng.stream(1), n_mc)
mc = np.mean(np.exp(1j * np.sqrt(t) * p * xs))
exact = law.chi(np.sqrt(t) * p)
print(f"\nMC average of one step at p={p}: {mc.real:+.5f}  (exact {exact:+.5f})")
