import math

import numpy as np
import pytest

from atomdyn.atoms import inner, make_vector, unit_atom
from atomdyn.trig import (
    CesaroQuadratureConfig,
    auto_config,
    cesaro_inner_numeric,
    default_steps,
    modulation_gap_exact,
    modulation_gap_numeric,
)


def window_oracle(dp: float, X: float) -> complex:
    """Exact antiderivative of (1/2X) int e^{i dp x} dx."""
    if dp == 0:
        return 1.0 + 0j
    return complex(math.sin(dp * X) / (dp * X))


def kronecker(u, v) -> complex:
    """The Kronecker rule sum_p conj(c_u(p)) c_v(p), written out from amplitudes."""
    return sum((a.c.conjugate() * v.amplitude(a.p) for a in u), 0j)


class TestAnalyticInner:
    def test_orthonormality(self):
        assert inner(unit_atom(1), unit_atom(1)) == 1
        assert inner(unit_atom(1), unit_atom(2)) == 0

    def test_linearity(self):
        u = make_vector([(0, 2.0), (3, 1.0)])
        assert inner(u, unit_atom(3)) == 1


class TestNumericInner:
    def test_equal_frequencies_any_window(self):
        for X in (1.0, 37.0, 1e3):
            cfg = CesaroQuadratureConfig(X, 256)
            val = cesaro_inner_numeric(unit_atom(1), unit_atom(1), cfg)
            assert abs(val - 1) <= 1e-13

    @pytest.mark.parametrize("X,bound,quad_tol", [(1e3, 2e-3, 1e-5), (1e4, 2e-4, 1e-6)])
    def test_distinct_frequencies_decay(self, X, bound, quad_tol):
        u, v = unit_atom(0), unit_atom(1)
        val = cesaro_inner_numeric(u, v, auto_config(X, u, v))
        assert abs(val) <= bound
        # agrees with the exact finite-window antiderivative up to the
        # Euler-Maclaurin endpoint term of the trapezoid rule
        assert abs(val - window_oracle(1.0, X)) <= quad_tol

    def test_error_bound_for_gaps(self):
        gen = np.random.default_rng(3)
        X = 500.0
        for _ in range(20):
            dp = float(gen.uniform(0.2, 4.0))
            u, v = unit_atom(0.0), unit_atom(dp)
            val = cesaro_inner_numeric(u, v, auto_config(X, u, v))
            assert abs(val) <= 2.0 / (dp * X) + 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CesaroQuadratureConfig(-1.0, 100)
        with pytest.raises(ValueError):
            CesaroQuadratureConfig(10.0, 1)

    def test_default_steps_resolves_oscillation(self):
        assert default_steps(100.0, 2.0) >= 40 * 100 * 2 / (2 * math.pi) - 1


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
            X = 1e4
            cfg = CesaroQuadratureConfig(X, default_steps(X, s))
            val = modulation_gap_numeric(s, 0.0, cfg)
            assert abs(val - modulation_gap_exact(s, X)) <= 1e-6
            assert abs(val - 2.0) <= 1e-3

    def test_independent_of_carrier_frequency(self):
        cfg = CesaroQuadratureConfig(100.0, 4096)
        vals = {modulation_gap_numeric(1.5, p, cfg) for p in (-3.0, 0.0, 7.0)}
        assert len(vals) == 1

    def test_resonant_nodes_are_smooth(self):
        # windows commensurate with the oscillation do not blow up
        s = 2 * math.pi
        cfg = CesaroQuadratureConfig(10.0, 2048)
        val = modulation_gap_numeric(s, 0.0, cfg)
        assert 0.0 <= val <= 4.0

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            modulation_gap_numeric(0.0, 0.0, CesaroQuadratureConfig(10.0, 16))

