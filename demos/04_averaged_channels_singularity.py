"""Averaging a shift channel over a random offset, and why it is singular.

The channel T_h conjugates a state by the shift S_h.  Replace the fixed h
with a random variable xi and average: the result E T_xi rho is a state
that can only be probed through its values on operators — it has no
density matrix.  When the law of xi is continuous the averaged state
annihilates every finite-rank projector, the defining property of a
singular state.  Mixing it with a normal state and asking "how much normal
part is left" recovers the mixing weight exactly.
"""

from atomdyn import (
    AlgebraElement,
    Cauchy,
    Gaussian,
    PureState,
    SeededRng,
    averaged_T,
    evaluate,
    indicator,
    make_vector,
    normality_witness,
    projector_value,
    unit_atom,
    yosida_hewitt_split,
)

rho = PureState(unit_atom(0.0))
avg = averaged_T(Gaussian(1.0), rho)

# Multiplication observables see the smoothed frequency distribution:
# the atom at 0 blurred by a standard normal.
M = AlgebraElement.mult(indicator(0.0, 1.0))
val = evaluate(avg, M)
print(f"P(smoothed frequency in [0,1]) = {val.real:.7f}   (Phi(1) - Phi(0) = 0.3413447)")

est = evaluate(avg, M, method="mc", mc_samples=50_000, gen=SeededRng(5).stream(0))
print(f"Monte Carlo, 50k samples:        {est.value.real:.7f} +/- {est.stderr:.5f}")

# Shift observables are blind to the averaging.
A = AlgebraElement.shift(1.0)
pair = PureState(make_vector([(0.0, 2 ** -0.5), (1.0, 2 ** -0.5)]))
print(f"\n<rho, S_1> before averaging: {evaluate(pair, A)}")
print(f"<E T_xi rho, S_1> after:     {evaluate(averaged_T(Cauchy(0.4), pair), A)}")

# Singularity: every rank-one projector evaluates to exactly zero, because
# a continuously distributed shift almost surely misses the atom grid.
for d in (Gaussian(1.0), Cauchy(0.4)):
    v = make_vector([(0.0, 0.6), (2.0, 0.8)])
    p_analytic = projector_value(averaged_T(d, rho), v)
    p_mc = projector_value(averaged_T(d, rho), v, method="mc",
                           mc_samples=10_000, gen=SeededRng(6).stream(0))
    print(f"\n{d}: projector value analytic = {p_analytic}, MC = {p_mc}")

# Normal / singular decomposition of a 30/70 mixture.
split = yosida_hewitt_split([(0.3, rho), (0.7, avg)])
print(f"\n30/70 mixture: normal weight = {split.normal_weight}")
print(f"normality witness on a covering grid = {normality_witness(split, [[0.0]])}")
