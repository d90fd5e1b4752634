"""One overflow rule: a vector kernel or ``evaluate`` returns finite numbers, or raises
a ValueError that names its inputs; never a bare RuntimeWarning, inf or NaN."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomdyn.algebra import ONE, AlgebraElement, apply_element, generator_apply, indicator, wave
from atomdyn.atoms import AtomicVector, add, apply_mod, inner, make_vector, scale, unit_atom
from atomdyn.channels import MixedState, NormalState, PureState, averaged_T, evaluate
from atomdyn.rand import (Cauchy, FiniteMixture, Gaussian, PointMass, Rademacher, Uniform,
                          chernoff_error, expected_walk_apply)
from atomdyn.trig import cesaro_inner

S = PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)]))
Z = 1.5e308 - 1.5e308j
BIG_WEIGHTS = AlgebraElement.of([(1e308, ONE, 0.0), (1e308, indicator(-5.0, 5.0), 0.0)])


def step_message(t, n, p):
    return f"the step frequency sqrt(t/n) p is not finite for t = {t!r}, n = {n!r} and p = {p!r}"


class TestNamed:
    """Each overflow that gave a bare warning, inf or inf+nanj raises its named ValueError."""

    @pytest.mark.parametrize("call,message", [
        (lambda: generator_apply(1e300, make_vector([(1e8, 1e10)])),
         "i * 1e+300 * 100000000.0 * (10000000000+0j), the amplitude at frequency "
         "100000000.0, is not finite"),
        (lambda: expected_walk_apply(Rademacher(), 1e300, 1, unit_atom(1e308)),
         step_message(1e300, 1, 1e308)),
        (lambda: expected_walk_apply(Uniform(), 1e300, 4, make_vector([(-1e308, 1.0), (1.0, 1.0)])),
         step_message(1e300, 4, -1e308)),
        (lambda: chernoff_error(Rademacher(), 1e300, 1, [1e308]), step_message(1e300, 1, 1e308)),
        # chi = e^{i pi/4} turns a finite amplitude past the float range
        (lambda: expected_walk_apply(PointMass(0.25), 1.0, 1, make_vector([(math.pi, Z)])),
         f"chi(sqrt(t/n) {math.pi!r})^1 * (1.5e+308-1.5e+308j), the amplitude at frequency "
         f"{math.pi!r}, is not finite"),
        (lambda: cesaro_inner(unit_atom(0.0), make_vector([(0.0, 1e308), (1.0, 1e308)]), 1e-300),
         "the window average for window 1e-300 is not finite: a product conj(c) d of amplitudes "
         "of u and v, or their sum, overflows"),
        (lambda: inner(make_vector([(0.0, 1e200)]), make_vector([(0.0, 1e200)])),
         "conj((1e+200+0j)) * (1e+200+0j), the product at frequency 0.0, or the sum up to it, "
         "overflows the float range"),
        # each product is finite, and their sum is not
        (lambda: inner(make_vector([(0.0, 1e154), (1.0, 1e154)]),
                       make_vector([(0.0, 1e154), (1.0, 1e154)])),
         "conj((1e+154+0j)) * (1e+154+0j), the product at frequency 1.0, or the sum up to it, "
         "overflows the float range"),
        (lambda: apply_element(AlgebraElement.of([(1e300, ONE, 0.0)]), make_vector([(0.0, 1e10)])),
         "(1e+300+0j) * (10000000000+0j), the amplitude of A u at frequency 0.0, overflows the "
         "float range"),
        (lambda: apply_element(AlgebraElement.of([(1e308, ONE, 0.0), (1e308, ONE, 1.0)]),
                               make_vector([(0.0, 1.0), (1.0, 1.0)])),
         "(1e+308+0j) * (1+0j) + (1e+308+0j) * (1+0j), the amplitude of A u at frequency 0.0, "
         "overflows the float range"),
        (lambda: evaluate(S, BIG_WEIGHTS),
         f"<s, A> for A = {BIG_WEIGHTS!r} is not finite: a term weight times its pair sum, or "
         "the sum of the terms, overflows the float range"),
        (lambda: evaluate(averaged_T(Gaussian(1.0), S), BIG_WEIGHTS),
         f"<s, A> for A = {BIG_WEIGHTS!r} is not finite: a term weight times its pair sum, or "
         "the sum of the terms, overflows the float range"),
        (lambda: apply_mod(math.pi / 4, make_vector([(1.0, Z)])),
         f"e^(i {math.pi / 4!r} 1.0) * (1.5e+308-1.5e+308j), the amplitude at frequency 1.0, "
         "is not finite"),
    ], ids=["generator", "walk-rademacher", "walk-uniform", "chernoff", "walk-product",
            "cesaro", "inner-product", "inner-sum", "element", "element-sum", "evaluate",
            "evaluate-averaged", "mod"])
    def test_named(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_a_phase_is_named_before_a_weight(self):
        # both terms overflow: the phase a q inside [lo, hi] is named first
        A = AlgebraElement.of([(1e308, ONE, 0.0), (1e308, wave(10.0), 0.0)])
        for call in (lambda: apply_element(A, make_vector([(0.0, 1e10), (1e308, 1.0)])),
                     lambda: evaluate(PureState(make_vector([(0.0, 0.6), (1e308, 0.8)])), A)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "the phase 10.0 * 1e+308 overflows the float range"

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5),
                                   FiniteMixture(((0.5, Gaussian(1.0)), (0.5, Cauchy(2.0))))],
                             ids=["gaussian", "cauchy", "mixture"])
    def test_chi_is_zero_where_the_step_overflows(self, d):
        # chi(+-inf) is 0.0 under these laws, so those atoms drop out
        u = make_vector([(-1e308, 1.0), (1.0, 0.5j), (1e308, 1.0)])
        assert expected_walk_apply(d, 4.0, 1, u) == expected_walk_apply(d, 4.0, 1, 0.5j * unit_atom(1.0))
        assert expected_walk_apply(d, 1e300, 3, unit_atom(1e308)) == AtomicVector()
        assert chernoff_error(Gaussian(1.0), 1e300, 1, [1e308, -1e308]) == 0.0

    def test_finite_sums_with_large_parts_pass(self):
        # a finite total whose modulus exceeds the float range is a value, not an error
        A = AlgebraElement.of([(1e308, ONE, 0.0), (1e308j, ONE, 0.0)])
        assert evaluate(PureState(unit_atom(0.0)), A) == 1e308 + 1e308j
        u = make_vector([(0.0, 1e308 + 1e308j)])
        assert inner(unit_atom(0.0), u) == 1e308 + 1e308j
        assert cesaro_inner(unit_atom(0.0), u, 1.0) == 1e308 + 1e308j


# frequencies, amplitudes, weights and shifts out to the float range, subnormals and -0.0
EDGE = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e200, 1e154,
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, 1.0, -0.5]
reals = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)
amplitudes = st.builds(complex, reals, reals)
# distinct frequencies (0.0 and -0.0 count as one), so building a vector adds nothing up
vectors = st.lists(st.tuples(reals, amplitudes), max_size=4,
                   unique_by=lambda pc: pc[0]).map(make_vector)
multipliers = st.one_of(
    st.just(ONE), reals.map(wave),
    st.tuples(reals, reals).map(lambda e: indicator(min(e), max(e))),
    st.tuples(reals, reals, reals).map(lambda e: wave(e[0]) * indicator(min(e[1:]), max(e[1:]))))
terms = st.lists(st.tuples(amplitudes, multipliers, reals), min_size=1, max_size=4)
LAWS = [Gaussian(0.7), Cauchy(1.3), Uniform(-0.5, 2.0), Rademacher(), PointMass(0.25),
        FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(1.0))))]


def finite_or_value_error(call):
    """call() returns finite numbers or raises ValueError; numpy raises on every
    floating-point error but underflow, which is benign."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = call()
    except ValueError as err:
        assert str(err)
        return
    if isinstance(out, AtomicVector):
        assert np.isfinite(out.freqs).all() and np.isfinite(out.amps).all(), out
    else:
        assert math.isfinite(out.real) and math.isfinite(out.imag), out


def element(rows):
    try:
        return AlgebraElement.of(rows)
    except ValueError:  # weights that merge past the float range
        assume(False)


class TestEdgeProperty:
    """Under np.errstate(over, invalid and divide raising), each kernel returns finite
    amplitudes or raises ValueError: never FloatingPointError or RuntimeWarning."""

    @settings(max_examples=400, deadline=None)
    @given(vectors, vectors, amplitudes, reals)
    @example(make_vector([(1e8, 1e10)]), AtomicVector(), 1e10, 1e300)
    @example(make_vector([(0.0, 1e200)]), make_vector([(0.0, 1e200)]), 1.0, 0.0)
    def test_vector_kernels(self, u, v, alpha, h):
        for call in (lambda: add(u, v), lambda: scale(alpha, u), lambda: inner(u, v),
                     lambda: generator_apply(h, u), lambda: apply_mod(h, u)):
            finite_or_value_error(call)

    @settings(max_examples=400, deadline=None)
    @given(terms, vectors)
    @example([(1e300, ONE, 0.0)], make_vector([(0.0, 1e10)]))
    def test_apply_element(self, rows, u):
        A = element(rows)
        finite_or_value_error(lambda: apply_element(A, u))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LAWS), st.sampled_from([0.0, 4.0, 1e300, 1.7976931348623157e308])
           | st.floats(0.0, allow_infinity=False), st.integers(1, 10 ** 6), vectors)
    @example(Gaussian(1.0), 1e300, 1, unit_atom(1e308))
    @example(Rademacher(), 1e300, 1, unit_atom(1e308))
    def test_expected_walk_apply(self, d, t, n, u):
        finite_or_value_error(lambda: expected_walk_apply(d, t, n, u))

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["pure", "normal", "mixed"]),
           st.lists(reals, min_size=1, max_size=3, unique=True), terms)
    @example("pure", [0.0, 1.0], [(1e308, ONE, 0.0), (1e308, indicator(-5.0, 5.0), 0.0)])
    def test_evaluate(self, kind, support, rows):
        k = len(support)
        pure = PureState(make_vector([(p, k ** -0.5) for p in support]))
        normal = NormalState(tuple(support), np.eye(k) / k)
        s = {"pure": pure, "normal": normal,
             "mixed": MixedState(((0.5, pure), (0.5, normal)))}[kind]
        A = element(rows)
        finite_or_value_error(lambda: evaluate(s, A))
