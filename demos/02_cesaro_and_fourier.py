"""Window-averaged inner products of trigonometric polynomials.

Finite sums of harmonics e^{ipx} are not square-integrable on the line,
but the window average (1/2X) * integral over [-X, X] of conj(u) * v has a
limit as X grows: 1 when the frequencies match, 0 otherwise.  Numerically
the average converges at rate O(1/X).  The same pairing is computed two
ways here — a trapezoid quadrature over a finite window and the exact
Kronecker rule — and the gap is tracked as the window widens.
"""

import numpy as np

from atomdyn import (
    auto_config,
    cesaro_inner_numeric,
    inner,
    make_vector,
    modulation_gap_exact,
    modulation_gap_numeric,
    unit_atom,
)

u = unit_atom(0.0)      # the constant function 1
v = unit_atom(1.0)      # e^{ix}

print("window averages of <1, e^{ix}> (exact limit is 0):")
print(f"{'X':>10} {'numeric':>14} {'2/(dp*X) bound':>16}")
for X in (1e2, 1e3, 1e4):
    num = cesaro_inner_numeric(u, v, auto_config(X, u, v))
    print(f"{X:>10.0e} {abs(num):>14.3e} {2.0 / X:>16.3e}")

# Matching frequencies give 1 regardless of the window.
same = cesaro_inner_numeric(v, v, auto_config(1e3, v, v))
print(f"\n<e^ix, e^ix> over X=1e3: {same.real:.6f} (limit 1)")

# The limit pairing is the Kronecker rule: the harmonic at p meets only the
# harmonic at a bit-equal frequency.  So the harmonics form an orthonormal
# family, and identifying the harmonic at p with the atom at p is an
# isometry: `inner` on the atoms equals the rule written out term by term,
# bit-for-bit.  Here z shares one frequency with w.
gen = np.random.default_rng(11)
k = 4
w = make_vector(list(zip(gen.uniform(-3, 3, k),
                         gen.normal(size=k) + 1j * gen.normal(size=k))))
z = make_vector(list(zip(list(gen.uniform(-3, 3, k - 1)) + [w.atoms[0].p],
                         gen.normal(size=k) + 1j * gen.normal(size=k))))
lhs = inner(w, z)
rhs = sum((a.c.conjugate() * z.amplitude(a.p) for a in w), 0j)
print(f"\nisometry check: inner {lhs} == Kronecker rule {rhs} -> {lhs == rhs}")

# A diagnostic about resonance: the window-averaged distance between a
# harmonic and its modulation by e^{isx} approaches 2, with a sinc-shaped
# correction whose size is set by s*X alone (the base frequency drops out).
s = 1.0
print("\nmodulation gap ||f_p - e^{isx} f_p||^2 under the window average:")
for X in (1e1, 1e2, 1e3):
    cfg = auto_config(X, unit_atom(0.0), unit_atom(s))
    numeric = modulation_gap_numeric(s, 0.0, cfg)
    exact = modulation_gap_exact(s, X)
    print(f"  X = {X:>6.0e}: numeric {numeric:.6f}, antiderivative {exact:.6f}")
