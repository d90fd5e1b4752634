import math
import re
import sys

import numpy as np
import pytest

from atomdyn.atoms import inner, make_vector, unit_atom
from atomdyn.trig import cesaro_inner, modulation_gap_exact

EPS = sys.float_info.epsilon


def kronecker(u, v) -> complex:
    """The Kronecker rule sum_p conj(c_u(p)) c_v(p), written out from amplitudes."""
    return sum((a.c.conjugate() * v.amplitude(a.p) for a in u), 0j)


def waves(u, x):
    """sum_k c_k e^{i p_k x} on the points x."""
    return sum((t.c * np.exp(1j * t.p * x) for t in u), np.zeros(len(x), dtype=complex))


def trapezoid_average(u, v, X, n):
    """(1/2X) int_{-X}^{X} conj(u) v dx by np.trapezoid on np.linspace(-X, X, n)."""
    x = np.linspace(-X, X, n)
    return complex(np.trapezoid(np.conj(waves(u, x)) * waves(v, x), x) / (2.0 * X))


def trapezoid_bound(u, v, X, n):
    """How far the trapezoid average may lie from the window average.

    On the nodes h apart, a pair of waves delta apart sums to exactly
    sinc(delta X) (theta/2) cot(theta/2) with theta = delta h, so the rule's
    relative bias is 1 - (theta/2) cot(theta/2) = theta^2/12 + theta^4/720 +
    ...; the rounding of the nodes, phases and sum adds a few eps per unit
    of phase.
    """
    h = 2.0 * X / (n - 1)
    total = 0.0
    for a in u:
        for b in v:
            delta = b.p - a.p
            theta = delta * h
            sinc = math.sin(delta * X) / (delta * X) if delta else 1.0
            bias = theta ** 2 / 12 * (1 + theta ** 2 / 30)
            total += abs(a.c * b.c) * (abs(sinc) * bias + 64 * EPS * (1 + abs(delta) * X))
    return total


class TestAnalyticInner:
    def test_orthonormality(self):
        assert inner(unit_atom(1), unit_atom(1)) == 1
        assert inner(unit_atom(1), unit_atom(2)) == 0

    def test_linearity(self):
        u = make_vector([(0, 2.0), (3, 1.0)])
        assert inner(u, unit_atom(3)) == 1


class TestNumericInner:
    """The finite-window average, in closed form."""

    def test_equal_frequencies_any_window(self):
        for X in (1e-300, 1.0, 37.0, 1e3, 1e300):
            assert cesaro_inner(unit_atom(1), unit_atom(1), X) == 1
        c = 0.6 + 0.8j
        assert cesaro_inner(make_vector([(2.5, c)]), unit_atom(2.5), 10.0) == c.conjugate()

    @pytest.mark.parametrize("X,bound,quad_tol", [(1e3, 2e-3, 1e-5), (1e4, 2e-4, 1e-6)])
    def test_distinct_frequencies_decay(self, X, bound, quad_tol):
        u, v = unit_atom(0), unit_atom(1)
        val = cesaro_inner(u, v, X)
        assert abs(val) <= bound and abs(val) <= 1.0 / X
        # the trapezoid rule at 20 nodes per period lies within its bias of it
        n = math.ceil(20 * X / math.pi)
        assert abs(val - trapezoid_average(u, v, X, n)) <= quad_tol

    def test_error_bound_for_gaps(self):
        gen = np.random.default_rng(3)
        X = 500.0
        for _ in range(20):
            dp = float(gen.uniform(0.2, 4.0))
            assert abs(cesaro_inner(unit_atom(0.0), unit_atom(dp), X)) <= 1.0 / (dp * X)

    def test_single_pair_is_sinc(self):
        for dp, X in ((1.0, 10.0), (0.9, 1e4), (-2.5, 3.0), (1.0, 1e12), (1.0, 1e290)):
            want = math.sin(dp * X) / (dp * X)
            assert cesaro_inner(unit_atom(0.0), unit_atom(dp), X) == want
        # X = 10: |sin 10| / 10, the golden cesaro row
        assert abs(cesaro_inner(unit_atom(0.0), unit_atom(1.0), 10.0)) == abs(math.sin(10.0)) / 10

    def test_tends_to_the_kronecker_rule(self):
        u = make_vector([(0.0, 1.0), (1.0, 0.5j), (-2.0, 0.3)])
        v = make_vector([(1.0, 2.0), (3.0, -1.0)])
        errors = [abs(cesaro_inner(u, v, X) - kronecker(u, v)) for X in (1e2, 1e4, 1e6)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 2.0 / 1e6

    def test_sesquilinear(self):
        u = make_vector([(0.0, 1.0 + 1j), (1.5, -0.5)])
        v = make_vector([(0.25, 2.0j), (1.0, 0.3 - 0.7j)])
        uv, vu = cesaro_inner(u, v, 7.0), cesaro_inner(v, u, 7.0)
        assert abs(uv - vu.conjugate()) <= 1e-15
        assert abs(cesaro_inner(2j * u, v, 7.0) - (-2j) * uv) <= 1e-15
        assert cesaro_inner(make_vector([]), v, 7.0) == 0j

    def test_config_validation(self):
        # a window of 0.0 or inf: tests/test_records.py
        for X in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"window must be finite and positive: {X!r}")):
                cesaro_inner(unit_atom(0.0), unit_atom(1.0), X)
        # a phase (q - p) X past the float range names the window and the gap
        for p, q, X, gap in ((0.0, 1e308, 100.0, 1e308), (0.0, 2.0, sys.float_info.max, 2.0),
                             (-1e308, 1e308, 1.0, math.inf)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the phase gap * window is not finite for window {X!r} and gap {gap!r}")):
                cesaro_inner(unit_atom(p), unit_atom(q), X)


TWO_PAIRS = make_vector([(0.0, 1.0), (-1.7, 1.0)]), unit_atom(0.83)
COMPLEX_PAIRS = (make_vector([(0.5, 0.6 + 0.8j), (1.5, -0.3 + 0.1j)]),
                 make_vector([(-0.7, 0.3 - 2j), (0.5, 1.0)]))
# (u, v, window, node count): at least 10 nodes per period of the largest gap
TRAPEZOID_CASES = [
    (unit_atom(0.0), unit_atom(1.0), 10.0, 64),
    (unit_atom(0.0), unit_atom(1.0), 1e2, 637),
    (unit_atom(0.0), unit_atom(1.0), 1e4, 63_662),
    (unit_atom(0.0), unit_atom(0.9), 1e4, 63_662),
    (unit_atom(0.0), unit_atom(2.0 * math.pi), 10.0, 401),  # a window of whole periods
    *((*COMPLEX_PAIRS, 250.0, n) for n in (16_384, 24_571, 98_299)),
    *((*TWO_PAIRS, 1e3, n) for n in (8_193, 32_769, 65_537, 100_003)),
]


class TestTrapezoidOracle:
    """np.trapezoid over np.linspace agrees with the closed form within its own bias."""

    @pytest.mark.parametrize("u, v, X, n", TRAPEZOID_CASES)
    def test_within_the_rule_bias(self, u, v, X, n):
        closed, trap = cesaro_inner(u, v, X), trapezoid_average(u, v, X, n)
        assert abs(closed - trap) <= trapezoid_bound(u, v, X, n)

    def test_the_bias_is_the_rule_not_the_closed_form(self):
        # one pair away from a zero of sinc: the trapezoid lies theta^2/12 low
        X, n, dp = 1e2, 637, 1.0
        closed = cesaro_inner(unit_atom(0.0), unit_atom(dp), X)
        trap = trapezoid_average(unit_atom(0.0), unit_atom(dp), X, n)
        theta = dp * 2.0 * X / (n - 1)
        assert trap.real / closed.real == pytest.approx(1.0 - theta ** 2 / 12, rel=1e-4)

    @pytest.mark.parametrize("s, X, n", [(1.0, 10.0, 64), (0.7, 3e4, 190_986),
                                         (2.0 * math.pi, 10.0, 401)])
    def test_modulation_gap(self, s, X, n):
        x = np.linspace(-X, X, n)
        trap = float(np.trapezoid(np.abs(np.exp(1j * s * x) - 1.0) ** 2, x) / (2.0 * X))
        bound = 2.0 * trapezoid_bound(unit_atom(0.0), unit_atom(s), X, n)
        assert abs(modulation_gap_exact(s, X) - trap) <= bound


class TestFourier:
    def test_isometry_exact(self):
        gen = np.random.default_rng(9)
        for _ in range(200):
            shared = float(gen.uniform(-5, 5))
            u = make_vector(
                [(shared, complex(*gen.normal(size=2))),
                 (float(gen.uniform(-5, 5)), complex(*gen.normal(size=2)))]
            )
            v = make_vector(
                [(shared, complex(*gen.normal(size=2))),
                 (float(gen.uniform(-5, 5)), complex(*gen.normal(size=2)))]
            )
            assert inner(u, v) == kronecker(u, v)

    def test_kronecker_both_sides(self):
        u = make_vector([(0, 1.0), (1, 1.0)])
        v = unit_atom(1)
        assert inner(u, v) == 1
        assert kronecker(u, v) == 1


class TestModulationGap:
    def test_gap_near_two_at_large_window(self):
        for s in (1.0, 2.0):
            assert abs(modulation_gap_exact(s, 1e4) - 2.0) <= 1e-3

    def test_is_the_norm_gap_of_the_closed_form(self):
        # ||e^{isx} - 1||^2 = 2 - 2 Re <1, e^{isx}> under the window average
        for s, X in ((1.0, 10.0), (0.7, 3e4), (-3.0, 0.5)):
            assert modulation_gap_exact(s, X) == 2.0 - 2.0 * cesaro_inner(
                unit_atom(0.0), unit_atom(s), X).real

    def test_resonant_nodes_are_smooth(self):
        # a window of whole periods: sin(sX) = 0 up to the rounding of 2 pi
        val = modulation_gap_exact(2 * math.pi, 10.0)
        assert abs(val - 2.0) <= 1e-15

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="non-zero step"):
            modulation_gap_exact(0.0, 10.0)

    def test_overflowing_phase_names_window_and_gap(self):
        with pytest.raises(ValueError, match=re.escape(
                "the phase gap * window is not finite for window 100.0 and gap 1e+308")):
            modulation_gap_exact(1e308, 100.0)
