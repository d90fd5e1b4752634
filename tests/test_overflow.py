"""One overflow rule: a vector kernel, ``evaluate`` or a state function returns finite
numbers, or raises a ValueError (a QuadratureError for an unresolved rule) that names its
inputs; never a bare RuntimeWarning, inf or NaN."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomdyn.algebra import (ONE, AlgebraElement, adjoint, apply_element, apply_shift, compose,
                             constant, generator_apply, indicator, shift_overlaps, wave,
                             weyl_residual)
from atomdyn.atoms import AtomicVector, add, apply_mod, inner, make_vector, norm, scale, unit_atom
from atomdyn.channels import (AveragedState, MixedState, NormalState, PureState, QuadratureError,
                              averaged_Phi, averaged_T, channel_T, dephasing_kernel, evaluate,
                              expect_function, normality_witness, projector_value,
                              yosida_hewitt_split)
from atomdyn.rand import (Cauchy, FiniteMixture, Gaussian, PointMass, Rademacher, SeededRng,
                          Uniform, chernoff_error, expected_walk_apply, random_walk_apply)
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
        # the step frequency 2.0 is finite, so the error is chi's own
        (lambda: expected_walk_apply(PointMass(1e308), 1.0, 1, make_vector([(2.0, 1.0)])),
         "chi of PointMass(a=1e+308) is not finite at x = 2.0: a phase x a overflows, or x is "
         "not a number"),
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
        (lambda: make_vector([(0.0, 1e308), (0.0, 1e308)]),
         "(1e+308+0j) + (1e+308+0j), the amplitudes at frequency 0.0, overflows the float range"),
        # three amplitudes merge at -0.0, the frequency seen first
        (lambda: make_vector([(-0.0, 1e308), (1.0, 1.0), (0.0, -1j), (0.0, 1e308)]),
         "(1e+308+0j) + (-0-1j) + (1e+308+0j), the amplitudes at frequency -0.0, overflows the "
         "float range"),
        # 0.0 - 1.0 and 1e-20 - 1.0 are both -1.0
        (lambda: apply_shift(1.0, make_vector([(0.0, 1e308), (1e-20, 1e308)])),
         "(1e+308+0j) + (1e+308+0j), the amplitudes at frequency -1.0, overflows the float range"),
        (lambda: shift_overlaps(make_vector([(0.0, 1e200)]), make_vector([(-1.0, 1e200)]),
                                np.array([0.5, 1.0])),
         "conj((1e+200+0j)) * (1e+200+0j), the product at frequency -1.0, or the sum up to it, "
         "overflows the float range"),
        (lambda: norm(make_vector([(0.0, 1.0), (2.0, Z)])),
         "|(1.5e+308-1.5e+308j)|, the modulus of an amplitude, overflows the float range"),
        # each modulus is finite, and the norm is not
        (lambda: norm(make_vector([(0.0, 1e308 + 1e308j), (1.0, 1e308 + 1e308j)])),
         f"the norm of 2 amplitudes, the largest of modulus {abs(1e308 + 1e308j)!r}, overflows "
         "the float range"),
    ], ids=["generator", "walk-rademacher", "walk-uniform", "chernoff", "walk-chi", "walk-product",
            "cesaro", "inner-product", "inner-sum", "element", "element-sum", "evaluate",
            "evaluate-averaged", "mod", "make-vector", "make-vector-three", "shift-merge",
            "shift-overlaps", "norm", "norm-sum"])
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
    """call() returns finite numbers or raises ValueError, QuadratureError included; numpy
    raises on every floating-point error but underflow, which is benign."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = call()
    except (ValueError, QuadratureError) as err:
        assert str(err)
        return
    assert_finite(out)


def assert_finite(out):
    if out is None:
        return
    if isinstance(out, tuple):  # a split (p, normal part, singular part)
        for x in out:
            assert_finite(x)
    elif isinstance(out, PureState):
        assert_finite(out.vector)
    elif isinstance(out, NormalState):
        assert np.isfinite(out.support).all() and np.isfinite(out.matrix).all(), out
    elif isinstance(out, MixedState):
        for w, st in out.components:
            assert math.isfinite(w), out
            assert_finite(st)
    elif isinstance(out, AveragedState):
        assert_finite(out.base)
    elif isinstance(out, AtomicVector):
        assert np.isfinite(out.freqs).all() and np.isfinite(out.amps).all(), out
    elif isinstance(out, AlgebraElement):
        # weights, frequencies and shifts are finite; an interval end may be infinite
        for c, (_, a, lo, hi), h in out.rows:
            assert all(map(math.isfinite, (c.real, c.imag, a, h))) and lo <= hi, out
    elif isinstance(out, np.ndarray):
        assert np.isfinite(out).all(), out
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
    @example(make_vector([(0.0, 1e200)]), make_vector([(-1.0, 1e200)]), 1.0, 1.0)
    @example(make_vector([(0.0, Z)]), AtomicVector(), 1.0, 0.0)
    def test_vector_kernels(self, u, v, alpha, h):
        for call in (lambda: add(u, v), lambda: scale(alpha, u), lambda: inner(u, v),
                     lambda: generator_apply(h, u), lambda: apply_mod(h, u), lambda: norm(u),
                     lambda: shift_overlaps(u, v, np.unique([0.0, h]))):
            finite_or_value_error(call)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 1e-20]) | reals, amplitudes),
                    max_size=5), reals)
    @example([(0.0, 1e308), (0.0, 1e308)], 0.0)
    @example([(0.0, 1e308), (1e-20, 1e308)], 1.0)
    def test_merges(self, pairs, h):
        # repeated frequencies add up, in make_vector and where a shift lands atoms on one float
        finite_or_value_error(lambda: make_vector(pairs))
        finite_or_value_error(lambda: apply_shift(h, make_vector(pairs)))

    @settings(max_examples=400, deadline=None)
    @given(terms, vectors)
    @example([(1e300, ONE, 0.0)], make_vector([(0.0, 1e10)]))
    def test_apply_element(self, rows, u):
        A = element(rows)
        finite_or_value_error(lambda: apply_element(A, u))

    @settings(max_examples=400, deadline=None)
    @given(terms, terms, reals, reals, vectors)
    @example([(1e308, ONE, 1e308)], [(1e308, wave(1e308), 1e308)], 1e308, 1e308, unit_atom(1.0))
    @example([(1.0, indicator(-1e308, 1e308), -1e308)], [(1j, wave(5e-324), -0.0)], 5e-324, -0.0,
             make_vector([(1e308, Z), (-1e308, 1.0)]))
    def test_algebra(self, rows, other, h, a, u):
        # products of terms, where a phase a h or a weight c1 c2 may leave the float range
        A, B = element(rows), element(other)
        for call in (lambda: compose(A, B), lambda: adjoint(A), lambda: weyl_residual(h, a, u)):
            finite_or_value_error(call)

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


# law scales out to 1e-300 and 1e300, components of weight 0, and continuous weights
# from 1e-12 to 1e-4 beside atoms
SCALES = st.sampled_from([1e-300, 1e300, 1.0])
small_part = st.floats(1e-12, 1e-4).map(lambda c: FiniteMixture((
    (0.3 - c / 2, Rademacher()), (0.7 - c / 2, PointMass(0.25)), (c, Gaussian(1.0)))))
edge_laws = st.one_of(
    st.sampled_from(LAWS), SCALES.map(Gaussian), SCALES.map(Cauchy), small_part,
    st.sampled_from(LAWS).map(lambda d: FiniteMixture(((0.0, Cauchy(1e300)), (1.0, d)))),
    st.tuples(SCALES, SCALES).map(lambda g: FiniteMixture(
        ((0.5, Gaussian(g[0])), (0.0, PointMass(1e308)), (0.5, Cauchy(g[1]))))))
supports = st.lists(reals, min_size=1, max_size=3, unique=True)


def edge_states(support):
    """A pure, a normal and a mixed state of equal weights on the support."""
    k = len(support)
    pure = PureState(make_vector([(p, k ** -0.5) for p in support]))
    normal = NormalState(tuple(support), np.eye(k) / k)
    return pure, normal, MixedState(((0.5, pure), (0.5, normal)))


# windowed waves, indicators and constants, the multipliers a law's expectation meets; their
# weights stay below 1e75, so that a term's weight times its constant stays below 1e151:
# past sqrt(max float) a Monte Carlo stderr overflows (test_mc_stderr_of_large_values)
moderate = st.sampled_from([1e75, -1e75, 5e-324, -0.0, 0.0, 1.0]) | st.floats(-1e75, 1e75)
weights = st.builds(complex, moderate, moderate)
law_multipliers = multipliers | weights.map(constant) | st.tuples(
    weights, reals, reals).map(lambda e: constant(e[0]) * indicator(min(e[1:]), max(e[1:])))


class TestStateFunctions:
    """The edge rule over the channels, the projector, the witness and the split, the
    walks, the expectations and averaged evaluation: finite values, or a ValueError or
    QuadratureError with a message."""

    @settings(max_examples=300, deadline=None)
    @given(edge_laws, edge_laws, supports, reals)
    @example(Gaussian(1e300), Cauchy(1e-300), [1e308, -1e308, 5e-324], 1e308)
    @example(FiniteMixture(((0.3 - 5e-13, Rademacher()), (0.7 - 5e-13, PointMass(0.25)),
                            (1e-12, Gaussian(1.0)))), Gaussian(1e-300), [0.0, 1.0, 2.0], -0.0)
    def test_channels(self, d, e, support, h):
        pure, normal, mixed = edge_states(support)
        for s in (pure, normal, mixed):
            finite_or_value_error(lambda: channel_T(h, s))
            finite_or_value_error(lambda: averaged_T(d, s))
            finite_or_value_error(lambda: averaged_T(e, averaged_T(d, s)))
        finite_or_value_error(lambda: averaged_Phi(d, normal))
        finite_or_value_error(lambda: dephasing_kernel(d, support))

    @settings(max_examples=300, deadline=None)
    @given(edge_laws, edge_laws, supports, supports)
    @example(Cauchy(1e300), Gaussian(1e-300), [1e308, -1e308], [5e-324, 1e308])
    def test_projector_witness_and_split(self, d, e, support, other):
        pure, normal, mixed = edge_states(support)
        v = edge_states(other)[0].vector
        cover = [support, [p - q for p in support for q in (-1.0, 0.25, 1.0)], other]
        for s in (pure, normal, mixed):
            avg = averaged_T(d, s)
            mix = MixedState(((0.25, avg), (0.0, averaged_T(e, s)), (0.75, averaged_T(e, pure))))
            for method in ("analytic", "mc"):
                finite_or_value_error(
                    lambda: projector_value(avg, v, method, 64, SeededRng(5).stream(0)))
                finite_or_value_error(
                    lambda: projector_value(mix, v, method, 64, SeededRng(5).stream(0)))
            for state in (s, avg, mix, MixedState(((0.5, avg), (0.5, s)))):
                finite_or_value_error(lambda: normality_witness(state, cover))
                finite_or_value_error(lambda: yosida_hewitt_split([(1.0, state)]))
            finite_or_value_error(lambda: yosida_hewitt_split([(0.5, avg), (0.5, mix)]))

    @settings(max_examples=300, deadline=None)
    @given(edge_laws, st.sampled_from([0.0, 1e-300, 1.0, 1e300, 1.7976931348623157e308])
           | st.floats(0.0, allow_infinity=False), st.integers(1, 10 ** 4), vectors, vectors,
           reals.filter(lambda x: x > 0))
    @example(Cauchy(1e300), 1e300, 3, unit_atom(1e308), unit_atom(-1e308), 5e-324)
    @example(Gaussian(1e300), 1.0, 1, unit_atom(1e154), unit_atom(1e154), 1e308)
    def test_walks_and_window(self, d, t, n, u, v, window):
        finite_or_value_error(lambda: chernoff_error(d, t, n, [0.5, 1e154, -1e308, 5e-324]))
        finite_or_value_error(lambda: random_walk_apply(d, t, n, SeededRng(6).stream(0), u))
        finite_or_value_error(lambda: cesaro_inner(u, v, window))

    @settings(max_examples=300, deadline=None)
    @given(edge_laws, law_multipliers, reals, st.lists(reals, min_size=1, max_size=3))
    @example(Cauchy(1e-300), wave(1e308) * indicator(-1.0, 1e308), 1e308, [-1e308, 5e-324])
    @example(Gaussian(1e300), indicator(-0.0, 5e-324), -0.0, [1e308, -0.0])
    @example(Gaussian(0.7), constant(1e75 + 1e75j) * indicator(5e-324, 1e308), 5e-324, [1e308])
    def test_expect_function(self, d, f, x, xs):
        for method in ("analytic", "mc"):
            finite_or_value_error(
                lambda: expect_function(d, f, x, method, 64, SeededRng(7).stream(0)))
        finite_or_value_error(lambda: expect_function(d, f, np.array(xs)))

    @settings(max_examples=300, deadline=None)
    @given(edge_laws, edge_laws, supports,
           st.lists(st.tuples(weights, law_multipliers, reals), min_size=1, max_size=4))
    @example(Cauchy(1e300), Gaussian(1e-300), [1e308, -1e308, 5e-324],
             [(1.0, wave(1e308) * indicator(-1.0, 1.0), 5e-324)])
    @example(Gaussian(0.7), Gaussian(0.7), [1e308],
             [(1e75 + 1e75j, wave(1e308), 1e308), (1e75 + 1e75j, constant(1e75 + 1e75j), 1e200)])
    def test_averaged_evaluate(self, d, e, support, rows):
        A = element(rows)
        pure, normal, mixed = edge_states(support)
        for s in (pure, normal, mixed):
            avg = averaged_T(d, s)
            mix = MixedState(((0.25, avg), (0.0, averaged_T(e, s)), (0.75, averaged_T(e, pure))))
            for state in (avg, mix, MixedState(((0.5, avg), (0.5, s)))):
                for method in ("analytic", "mc"):
                    finite_or_value_error(
                        lambda: evaluate(state, A, method, 64, SeededRng(8).stream(0)))

    @pytest.mark.xfail(strict=True, reason="McEstimate.of squares the deviations from the "
                       "mean, which overflow past 1.34e154 where the stderr is finite")
    @pytest.mark.parametrize("call", [
        lambda gen: expect_function(Gaussian(0.7), constant(1e200) * indicator(0.0, 1e308),
                                    0.0, "mc", 64, gen),
        lambda gen: evaluate(averaged_T(Gaussian(0.7), PureState(unit_atom(1.0))),
                             AlgebraElement.of([(1e200, wave(1e200), 0.0)]), "mc", 64, gen)],
        ids=["expect_function", "evaluate"])
    def test_mc_stderr_of_large_values(self, call):
        # values of modulus near 1e200 have a stderr near 1e200 / sqrt(64), far inside the range
        est = call(SeededRng(9).stream(0))
        assert math.isfinite(abs(est.value)) and math.isfinite(est.stderr), est
