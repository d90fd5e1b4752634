import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomdyn.atoms import _LEAF, inner, make_vector, unit_atom
from atomdyn.trig import (
    CesaroQuadratureConfig,
    _window_average,
    auto_config,
    cesaro_inner_numeric,
    default_steps,
    modulation_gap_exact,
    modulation_gap_numeric,
    pointwise,
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
        for steps in (100.5, True, np.float64(64.0), "64"):
            with pytest.raises(ValueError, match=re.escape(f"steps must be an integer: {steps!r}")):
                CesaroQuadratureConfig(10.0, steps)
        # 2X overflows, or the node spacing is zero or subnormal
        for window, steps in ((1e308, 64), (5e-324, 64), (1e-310, 64), (1e-300, 2**62)):
            with pytest.raises(ValueError, match=re.escape(
                    f"window {window!r} on {steps!r} nodes: 2*window must be finite and "
                    f"the node spacing at least {sys.float_info.min!r}")):
                CesaroQuadratureConfig(window, steps)
        assert CesaroQuadratureConfig(10.0, np.int64(64)).steps == 64
        assert CesaroQuadratureConfig(sys.float_info.max / 2, 2).window == sys.float_info.max / 2
        # past 2**53 nodes the node indices are not exact floats
        for steps in (2**53 + 1, np.int64(2**62)):
            with pytest.raises(ValueError, match=re.escape(
                    "steps must be at most 2**53, past which node indices are not exact "
                    f"floats: {steps!r}")):
                CesaroQuadratureConfig(1.0, steps)
        assert CesaroQuadratureConfig(1.0, 2**53).steps == 2**53
        # a node count that is not finite, or past 2**53, names the window and the gap
        for window, gap, nodes in ((1e308, 1.0, "inf"), (math.inf, 1.0, "inf"),
                                   (math.nan, 1.0, "nan"), (1.0, math.inf, "inf"),
                                   (1e290, 1.0, "6.366e+290")):
            with pytest.raises(ValueError, match=re.escape(
                    f"the node count {nodes} for window {window!r} and gap {gap!r} "
                    "is not a number up to 2**53")):
                default_steps(window, gap)
        with pytest.raises(ValueError, match=re.escape(
                "the node count inf for window inf and gap 1.0 is not a number up to 2**53")):
            auto_config(math.inf, unit_atom(0.0), unit_atom(0.5))
        assert default_steps(2**53 * math.pi / 20, 1.0) == 2**53

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


def plain_pointwise(u, x):
    """pointwise written out as the full-array loop."""
    out = np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    for t in u:
        out = out + t.c * np.exp(1j * t.p * np.asarray(x, dtype=float))
    return out


def plain_cesaro(u, v, cfg):
    """cesaro_inner_numeric written out: np.trapezoid over np.linspace."""
    x = np.linspace(-cfg.window, cfg.window, cfg.steps)
    integrand = np.conj(plain_pointwise(u, x)) * plain_pointwise(v, x)
    return complex(np.trapezoid(integrand, x) / (2.0 * cfg.window))


def plain_gap(s, cfg):
    """modulation_gap_numeric written out: np.trapezoid over np.linspace."""
    x = np.linspace(-cfg.window, cfg.window, cfg.steps)
    return float(np.trapezoid(np.abs(np.exp(1j * s * x) - 1.0) ** 2, x) / (2.0 * cfg.window))


def complex_hex(z):
    return z.real.hex(), z.imag.hex()


B = _LEAF
# the edges of 2**15-interval blocks as well: the bits may not depend on the run size
W = 1 << 15
NODE_COUNTS = sorted({2, 3, 64, B - 1, B, B + 1, 2 * B + 1, 3 * B - 5,
                      W - 1, W, W + 1, 2 * W + 1, 3 * W - 5, 636_620})


class TestBlockedWindowAverage:
    """The blocked window averages give the bits of the full-array rule."""

    @pytest.mark.parametrize("n", NODE_COUNTS)
    def test_unit_atoms_match_full_array_bits(self, n):
        cfg = CesaroQuadratureConfig(1e5 if n == 636_620 else 1e3, n)
        u, v = make_vector([(0.0, 1.0), (-1.7, 1.0)]), unit_atom(0.83)
        assert complex_hex(cesaro_inner_numeric(u, v, cfg)) == complex_hex(plain_cesaro(u, v, cfg))
        assert modulation_gap_numeric(0.7, 0.0, cfg).hex() == plain_gap(0.7, cfg).hex()

    @pytest.mark.parametrize("n", sorted({16_384, B + 1, 2 * B + 1, 3 * B - 5,
                                               W + 1, 2 * W + 1, 3 * W - 5}))
    def test_complex_amplitudes_match_from_16384_nodes(self, n):
        cfg = CesaroQuadratureConfig(250.0, n)
        u = make_vector([(0.5, 0.6 + 0.8j), (1.5, -0.3 + 0.1j)])
        v = make_vector([(-0.7, 0.3 - 2j), (0.5, 1.0)])
        assert complex_hex(cesaro_inner_numeric(u, v, cfg)) == complex_hex(plain_cesaro(u, v, cfg))

    @pytest.mark.parametrize("window, n", sorted({(1e3, 2), (1e3, B + 1), (0.37, 3 * B - 5),
                                                  (1e3, W + 1), (0.37, 3 * W - 5),
                                                  (1e5, 636_620)}))
    def test_block_nodes_are_linspace_nodes(self, window, n):
        calls = []

        def values(x):
            calls.append(x.copy())
            return np.zeros(len(x))

        _window_average(values, CesaroQuadratureConfig(window, n))
        nodes = np.linspace(-window, window, n)
        assert calls[0].tobytes() == nodes[:2].tobytes()  # the dtype probe
        k0 = 0
        for x in calls[1:]:
            assert 2 <= len(x) <= _LEAF + 1
            assert x.tobytes() == nodes[k0:k0 + len(x)].tobytes()
            k0 += len(x) - 1
        assert k0 == n - 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40_000),
           st.lists(st.floats(0.0, 1.0), max_size=4),
           st.complex_numbers(max_magnitude=10.0, allow_nan=False))
    @example(seed=1, n=20_000, cuts=[0.005], c=0.6 + 0.8j)  # 100 + 19,900 points
    @example(seed=0, n=8, cuts=[0.875], c=3 + 1j)  # a piece of one point
    def test_pointwise_is_the_same_on_any_split(self, seed, n, cuts, c):
        x = np.random.default_rng(seed).uniform(-1e3, 1e3, n)
        u = make_vector([(0.5, c), (-1.25, 1.0)]) if c else unit_atom(-1.25)
        edges = sorted({int(f * n) for f in cuts} | {0, n})
        parts = [pointwise(u, x[a:b]) for a, b in zip(edges, edges[1:])]
        assert np.concatenate(parts).tobytes() == pointwise(u, x).tobytes()


@pytest.mark.parametrize("name, limit_mb", [("cesaro", 16.0), ("gap", 8.0)])
def test_window_average_peak_memory(name, limit_mb):
    """At X = 1e5 (636,620 nodes) the peak is below 1.6 full-length arrays of trapezoid terms.

    One such array is 10.2 MB complex (cesaro) or 5.1 MB real (the gap); MB = 1e6 bytes.
    """
    u, v = unit_atom(0.0), unit_atom(0.83)
    cfg = auto_config(1e5, u, v)
    call = {"cesaro": lambda: cesaro_inner_numeric(u, v, cfg),
            "gap": lambda: modulation_gap_numeric(0.83, 0.0, cfg)}[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.steps == 636_620
    assert peak < limit_mb * 1e6


@pytest.mark.parametrize("name, limit_mb", [("cesaro", 3.0), ("gap", 2.0)])
def test_window_average_memory_is_a_few_blocks(name, limit_mb):
    """At X = 1e5 (636,620 nodes) no array of all the terms is made (MB = 1e6 bytes)."""
    u, v = unit_atom(0.0), unit_atom(0.83)
    cfg = auto_config(1e5, u, v)
    call = {"cesaro": lambda: cesaro_inner_numeric(u, v, cfg),
            "gap": lambda: modulation_gap_numeric(0.83, 0.0, cfg)}[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.steps == 636_620
    assert peak < limit_mb * 1e6
