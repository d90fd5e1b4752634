import cmath
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomdyn import algebra, channels
from atomdyn.atoms import cmul, fold, inner, make_vector, norm, unit_atom
from atomdyn.algebra import (
    ONE,
    AlgebraElement,
    Multiplier,
    adjoint,
    apply_element,
    compose,
    constant,
    indicator,
    shift_overlaps,
    wave,
)
from atomdyn.rand import (
    Cauchy,
    ConvolutionFamily,
    FiniteMixture,
    Gaussian,
    PointMass,
    Rademacher,
    SeededRng,
    Uniform,
)
from atomdyn.channels import (
    AveragedState,
    McEstimate,
    MixedState,
    NormalState,
    PureState,
    QuadratureError,
    averaged_Phi,
    averaged_T,
    channel_T,
    dephasing_kernel,
    evaluate,
    expect_function,
    normality_witness,
    projector_value,
    semigroup_Phi,
    semigroup_T,
    yosida_hewitt_split,
)

IDENTITY = AlgebraElement.identity()


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def random_unit_vector(gen, max_atoms=5):
    k = int(gen.integers(1, max_atoms + 1))
    ps = gen.uniform(-8, 8, k)
    cs = gen.normal(size=k) + 1j * gen.normal(size=k)
    v = make_vector(list(zip(ps, cs)))
    return (1.0 / norm(v)) * v


def random_density(gen, m):
    a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return NormalState(tuple(np.sort(gen.uniform(-5, 5, m))), rho)


def uniform_pair():
    return PureState(make_vector([(0.0, 2 ** -0.5), (1.0, 2 ** -0.5)]))


PAIR_DENSITY = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))


def split_state(components):
    """The Yosida--Hewitt split of the components as one state: the mixture of its parts."""
    p, normal, singular = yosida_hewitt_split(components)
    return MixedState(tuple((w, part) for w, part in ((p, normal), (1.0 - p, singular))
                            if part is not None))


def eigen_mixture(s):
    """rho as the mixture of its eigenvectors' pure states (eigh, no cut).

    A reference for tr(rho A) computed by a route other than the matrix
    pairing of ``evaluate``.
    """
    w, vecs = np.linalg.eigh(s.matrix)
    comps = []
    for i in range(len(w)):
        v = make_vector([(p, vecs[j, i]) for j, p in enumerate(s.support)])
        comps.append((float(w[i]), PureState((1.0 / norm(v)) * v)))
    return MixedState(tuple(comps))


def rank_one(u):
    """|u><u| as a normal state over the atoms of u."""
    c = u.amps
    return NormalState(u.frequencies, np.outer(c, c.conj()))


class TestEvaluate:
    def test_unitality_all_kinds(self):
        gen = np.random.default_rng(1)
        states = [
            PureState(unit_atom(0.0)),
            random_density(gen, 3),
            MixedState(((0.5, PureState(unit_atom(0.0))), (0.5, uniform_pair()))),
            averaged_T(Gaussian(1.0), uniform_pair()),
        ]
        for s in states:
            assert evaluate(s, IDENTITY) == pytest.approx(1.0, abs=1e-12)

    def test_mult_on_basis_state(self):
        f = indicator(0.0, 1.0)
        assert evaluate(PureState(unit_atom(0.5)), AlgebraElement.mult(f)) == 1.0
        assert evaluate(PureState(unit_atom(2.0)), AlgebraElement.mult(f)) == 0.0

    def test_mult_weights(self):
        # <rho_u, M_f> = sum |c_k|^2 f(p_k)
        u = make_vector([(0.2, 0.6), (3.0, 0.8j)])
        f = indicator(0.0, 1.0)
        val = evaluate(PureState(u), AlgebraElement.mult(f))
        assert val == pytest.approx(0.36)

    def test_positivity(self):
        gen = np.random.default_rng(2)
        for _ in range(40):
            u = random_unit_vector(gen)
            states = [
                PureState(u),
                random_density(gen, 2),
                averaged_T(Gaussian(0.5), PureState(u)),
            ]
            terms = [
                (complex(*gen.normal(size=2)), indicator(-2, 2), float(gen.uniform(-2, 2)))
                for _ in range(int(gen.integers(1, 4)))
            ]
            A = AlgebraElement.of(terms)
            for s in states:
                val = evaluate(s, compose(adjoint(A), A), method="analytic")
                assert val.real >= -1e-10
                assert abs(val.imag) <= 1e-9

    def test_representation_invariance_of_mixtures(self):
        # two decompositions of the same density operator agree on probes
        plus = PureState(make_vector([(0.0, 2 ** -0.5), (1.0, 2 ** -0.5)]))
        minus = PureState(make_vector([(0.0, 2 ** -0.5), (1.0, -(2 ** -0.5))]))
        basis = MixedState(
            ((0.5, PureState(unit_atom(0.0))), (0.5, PureState(unit_atom(1.0))))
        )
        rotated = MixedState(((0.5, plus), (0.5, minus)))
        probes = [
            IDENTITY,
            AlgebraElement.shift(1.0),
            AlgebraElement.mult(indicator(-0.5, 0.5)),
        ]
        for A in probes:
            a = evaluate(basis, A)
            b = evaluate(rotated, A)
            assert abs(a - b) <= 1e-12
            avg_a = evaluate(averaged_T(Gaussian(1.0), basis), A)
            avg_b = evaluate(averaged_T(Gaussian(1.0), rotated), A)
            assert abs(avg_a - avg_b) <= 1e-12

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            PureState(make_vector([(0.0, 2.0)]))

    def test_mixture_components_are_states(self):
        with pytest.raises(TypeError, match="^mixture component is not a state: 3$"):
            MixedState(((1.0, 3),))
        # an averaged component is a state too: the mixture adds its components' values
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        with_avg = MixedState(((0.5, uniform_pair()), (0.5, avg)))
        for A in (IDENTITY, AlgebraElement.shift(1.0), AlgebraElement.mult(indicator(-0.5, 0.5))):
            want = 0.5 * evaluate(uniform_pair(), A) + 0.5 * evaluate(avg, A)
            assert abs(evaluate(with_avg, A) - want) <= 1e-15
        # normal and mixed components pair as their own states do
        pure = PureState(unit_atom(0.0))
        inner_mix = MixedState(((0.5, pure), (0.5, uniform_pair())))
        mixed = MixedState(((0.25, PAIR_DENSITY), (0.75, inner_mix)))
        for A in (IDENTITY, AlgebraElement.shift(1.0), AlgebraElement.mult(indicator(-0.5, 0.5))):
            want = 0.25 * evaluate(PAIR_DENSITY, A) + 0.75 * evaluate(inner_mix, A)
            assert abs(evaluate(mixed, A) - want) <= 1e-15


class TestNormalEvaluate:
    """evaluate(NormalState) is tr(rho A) on the matrix itself."""

    @staticmethod
    def probes(support):
        p = sorted(support)
        A = AlgebraElement.of([(0.7, indicator(-1.0, 2.0), p[1] - p[0]),
                               (0.3j, wave(1.3), 0.0),
                               (0.5, ONE, p[0] - p[-1])])
        return [
            AlgebraElement.shift(p[-1] - p[0]),
            AlgebraElement.mult(indicator(p[0], p[len(p) // 2])),
            AlgebraElement.modulation(0.8),
            compose(AlgebraElement.modulation(0.8), AlgebraElement.shift(p[1] - p[0])),
            A,
            compose(adjoint(A), A),
        ]

    @pytest.mark.parametrize("m", [2, 8, 64])
    def test_matches_spectral_mixture(self, m):
        gen = np.random.default_rng(40 + m)
        for _ in range(3):
            s = random_density(gen, m)
            mix = eigen_mixture(s)
            for A in self.probes(s.support):
                assert abs(evaluate(s, A) - evaluate(mix, A)) <= 1e-12

    def test_unsorted_support(self):
        gen = np.random.default_rng(41)
        s = random_density(gen, 6)
        perm = gen.permutation(6)
        shuffled = NormalState(tuple(s.support[j] for j in perm),
                               s.matrix[np.ix_(perm, perm)])
        for A in self.probes(s.support):
            assert abs(evaluate(shuffled, A) - evaluate(s, A)) <= 1e-12

    def test_atoms_colliding_under_the_shift(self):
        # 0.0 - 1.0 and 1e-300 - 1.0 are both -1.0, which is on the support
        gen = np.random.default_rng(42)
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        s = NormalState((1e-300, -1.0, 0.0), rho)
        A = AlgebraElement.shift(1.0)
        want = rho[0, 1] + rho[2, 1]
        assert abs(evaluate(s, A) - want) <= 1e-15
        assert abs(evaluate(s, A) - evaluate(eigen_mixture(s), A)) <= 1e-12

    def test_method_is_ignored(self):
        s = random_density(np.random.default_rng(43), 8)
        for A in self.probes(s.support):
            assert evaluate(s, A, method="mc") == evaluate(s, A)

    def test_unital(self):
        gen = np.random.default_rng(44)
        for m in (1, 2, 8, 64):
            assert abs(evaluate(random_density(gen, m), IDENTITY) - 1.0) <= 1e-12

    def test_no_eigendecomposition(self, monkeypatch):
        s = random_density(np.random.default_rng(45), 200)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh on the evaluation path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for A in self.probes(s.support):
            evaluate(s, A)
        assert abs(evaluate(s, IDENTITY) - 1.0) <= 1e-12
        # nor on averaging the state, evaluating it, or probing its mass
        for d in (Gaussian(1.0), Rademacher()):
            avg = averaged_T(d, s)
            A = AlgebraElement.shift(s.support[1] - s.support[0])
            assert evaluate(avg, A) == evaluate(s, A)
            assert abs(evaluate(avg, IDENTITY) - 1.0) <= 1e-12
            v = unit_atom(s.support[0])
            projector_value(avg, v)
            projector_value(avg, v, "mc", mc_samples=100, gen=SeededRng(2).stream(0))
            normality_witness(avg, [s.support])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NormalState((0.0, math.inf), np.eye(2) / 2.0)
        s = random_density(np.random.default_rng(46), 2)
        with pytest.raises(ValueError):
            evaluate(s, AlgebraElement.shift(math.inf))

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5), Rademacher()],
                             ids=["gaussian", "cauchy", "rademacher"])
    def test_shift_invariance_under_averaging(self, d):
        # the averaged state and the normal state both pair the matrix;
        # the test below pins them bit for bit
        gen = np.random.default_rng(47)
        for m in (2, 8, 64):
            s = random_density(gen, m)
            for a in (0.0, s.support[1] - s.support[0], float(gen.uniform(-4, 4))):
                A = AlgebraElement.shift(a)
                assert abs(evaluate(averaged_T(d, s), A) - evaluate(s, A)) <= 1e-12

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5), Rademacher(),
                                   FiniteMixture(((0.5, Gaussian(1.0)),
                                                  (0.5, Rademacher())))],
                             ids=["gaussian", "cauchy", "rademacher", "mixture"])
    def test_shift_invariance_under_averaging_exact(self, d):
        # E 1 = 1 exactly, and both paths take the same np.dot of the pairs
        gen = np.random.default_rng(48)
        for m in (2, 8, 64):
            s = random_density(gen, m)
            avg = averaged_T(d, s)
            assert avg.base is s
            for a in (0.0, s.support[1] - s.support[0], s.support[0] - s.support[-1],
                      float(gen.uniform(-4, 4))):
                A = AlgebraElement.shift(a)
                assert evaluate(avg, A) == evaluate(s, A)
            A = AlgebraElement.of([(0.3, ONE, 0.0), (0.5j, ONE, s.support[1] - s.support[0])])
            assert evaluate(avg, A) == evaluate(s, A)


# frequencies and shifts that land atoms on one float: 0.0 - 1.0 and
# 1e-300 - 1.0 are both -1.0, and 1e16 + 2.0 - 2.0 rounds onto 1e16
pairing_freqs = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1.0, -1.0, 1e16, 1e16 + 2.0]),
    st.integers(-16, 16).map(lambda j: j / 8.0),
)
pairing_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-4, 4))
pairing_amps = st.builds(complex, pairing_parts, pairing_parts)
pairing_multipliers = st.one_of(
    st.just(ONE),
    st.floats(-3, 3).map(wave),
    st.tuples(pairing_freqs, st.floats(0, 4)).map(lambda t: indicator(t[0], t[0] + t[1])),
    st.builds(Multiplier, pairing_amps, st.floats(-3, 3)),
)
pairing_shifts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 1e16]),
                           st.integers(-16, 16).map(lambda j: j / 8.0))


class TestPairingRule:
    """Every kind pairs atoms by one rule, and checks the shifts once."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(pairing_freqs, pairing_amps), min_size=1, max_size=8),
           st.lists(st.tuples(pairing_amps, pairing_multipliers, pairing_shifts),
                    min_size=1, max_size=4))
    @example([(0.0, 0.1), (1e-300, 0.7), (-1.0, 1j), (1e16, 1.0), (1e16 + 2.0, 2.0)],
             [(1.0, ONE, 1.0), (0.5j, wave(0.3), 2.0), (1.0, indicator(-2.0, 0.0), 1.0)])
    # a subnormal weight: the two sides differ by 5e-324, the smallest float step
    @example([(0.0, 0j)] * 4 + [(0.0, 2j), (0.0, 1 + 0j)], [(2.2250738585e-313j, ONE, 0.0)])
    def test_pure_matches_inner_of_apply_element(self, pairs, terms):
        v = make_vector(pairs)
        assume(1e-100 < norm(v) < 1e100)
        u = (1.0 / norm(v)) * v
        A = AlgebraElement.of(terms)
        want = inner(u, apply_element(A, u))
        # relative, with an absolute floor of a few subnormal steps per atom pair,
        # since rounding among the subnormals is absolute
        tol = (1e-14 * sum(abs(c) for c, _, _ in A.rows)
               + 4 * 2.0 ** -1074 * len(A.rows) * len(u))
        assert abs(evaluate(PureState(u), A) - want) <= tol

    def test_shift_past_the_float_range_every_kind(self):
        rho = NormalState((0.0, 1e308), np.diag([0.5, 0.5]))
        u = PureState(make_vector([(0.0, 0.6), (1e308, 0.8)]))
        mixed = MixedState(((0.5, u), (0.5, uniform_pair())))
        A = AlgebraElement.shift(-1e308)
        B = AlgebraElement.of([(1.0, indicator(0.0, 1.0), 0.0), (0.5, wave(1.0), -1e308)])
        states = [rho, u, mixed] + [averaged_T(d, s) for d in (Gaussian(1.0), Rademacher())
                                    for s in (rho, u, mixed)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in states:
                for E in (A, B):
                    with pytest.raises(ValueError, match="shift -1e[+]308 moves an atom"):
                        evaluate(s, E)
                    draws = SeededRng(3).stream(0)
                    with pytest.raises(ValueError, match="shift -1e[+]308 moves an atom"):
                        evaluate(s, E, "mc", mc_samples=10, gen=draws)
                    # the error comes before any draw
                    assert draws.normal() == SeededRng(3).stream(0).normal()


class TestNormalStateEquality:
    """NormalState compares support and matrix entries; it stays unhashable."""

    def test_pickled_copy_is_equal(self):
        s = random_density(np.random.default_rng(49), 4)
        back = pickle.loads(pickle.dumps(s))
        assert back.matrix is not s.matrix
        assert back == s and not back != s
        assert NormalState(s.support, s.matrix.copy()) == s
        with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
            hash(back)

    def test_unequal_matrices(self):
        s = PAIR_DENSITY
        other = NormalState(s.support, np.array([[0.5, 0.25], [0.25, 0.5]]))
        assert other != s and not other == s
        assert NormalState((0.0, 2.0), s.matrix) != s
        assert s.__eq__(s.support) is NotImplemented

    def test_wrapping_records(self):
        s = random_density(np.random.default_rng(50), 3)
        back = pickle.loads(pickle.dumps(s))
        assert AveragedState(back, Gaussian(1.0)) == AveragedState(s, Gaussian(1.0))
        assert AveragedState(back, Gaussian(1.0)) != AveragedState(s, Cauchy(1.0))
        assert AveragedState(PAIR_DENSITY, Gaussian(1.0)) != AveragedState(s, Gaussian(1.0))
        split = split_state([(0.4, s), (0.6, averaged_T(Gaussian(1.0), s))])
        again = pickle.loads(pickle.dumps(split))
        assert isinstance(again, MixedState)
        assert again == split
        assert again != split_state([(0.5, s), (0.5, averaged_T(Gaussian(1.0), s))])

    def test_support_is_a_tuple_of_floats(self):
        # an array support made == raise, and a list compared unequal to the tuple
        rho = PAIR_DENSITY.matrix
        for support in (np.array([0.0, 1.0]), [0, 1], (np.float64(0.0), np.int64(1))):
            s = NormalState(support, rho)
            assert s == PAIR_DENSITY and repr(s.support) == "(0.0, 1.0)"
            assert [type(p) for p in s.support] == [float, float]
        split = yosida_hewitt_split([(1.0, NormalState(np.array([0.0, 1.0]), rho))])
        assert split[1] == PAIR_DENSITY


class TestChannelT:
    def test_identity_shift(self):
        s = uniform_pair()
        assert channel_T(0.0, s) == s

    def test_moves_basis_state(self):
        out = channel_T(1.5, PureState(unit_atom(0.0)))
        assert out == PureState(unit_atom(-1.5))
        # a mixed state moves component by component, keeping the weights
        mixed = MixedState(((0.25, PureState(unit_atom(0.0))), (0.75, uniform_pair())))
        assert channel_T(1.5, mixed) == MixedState(
            ((0.25, out), (0.75, channel_T(1.5, uniform_pair()))))

    def test_adjoint_duality(self):
        gen = np.random.default_rng(3)
        for _ in range(30):
            s = PureState(random_unit_vector(gen))
            h = float(gen.uniform(-3, 3))
            A = AlgebraElement.of([(1.0, indicator(-2, 2), 0.5)])
            lhs = evaluate(channel_T(h, s), A)
            sandwich = compose(adjoint(AlgebraElement.shift(h)),
                               compose(A, AlgebraElement.shift(h)))
            rhs = evaluate(s, sandwich)
            assert abs(lhs - rhs) <= 1e-12

    def test_normal_state_support_shifts(self):
        gen = np.random.default_rng(4)
        s = random_density(gen, 3)
        out = channel_T(2.0, s)
        assert out.support == tuple(p - 2.0 for p in s.support)
        assert np.array_equal(out.matrix, s.matrix)

    @pytest.mark.parametrize("d", [Gaussian(1.0), Rademacher(), FiniteMixture(
        ((0.5, Rademacher()), (0.5, Gaussian(1.0))))], ids=["gaussian", "rademacher", "mixture"])
    def test_averaged_state_shifts_its_base(self, d):
        # S_h commutes with the random shift S_xi, so T_h moves the base and keeps the law
        gen = np.random.default_rng(5)
        bases = [PureState(random_unit_vector(gen)), random_density(gen, 3),
                 MixedState(((0.25, uniform_pair()), (0.75, PAIR_DENSITY)))]
        for s in bases:
            for h in (0.75, -2.5, 1e-300):
                assert channel_T(h, averaged_T(d, s)) == averaged_T(d, channel_T(h, s))

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_averaged_projector_follows_the_base_shift(self, method):
        # on the grid (1/4) Z every shift and its sum are exact
        pure = PureState(make_vector([(0.0, 0.6), (0.5, 0.8j)]))
        normal = NormalState((-0.25, 0.0, 1.0), np.array(
            [[0.5, 0.1, 0.0], [0.1, 0.3, 0.1j], [0.0, -0.1j, 0.2]]))
        mixed = MixedState(((0.4, pure), (0.6, normal)))

        def value(avg, v):
            return projector_value(avg, v, method, 50, SeededRng(2).stream(0))

        a, h = 0.75, -1.25
        seen = 0.0
        for s in (pure, normal, mixed):
            for p in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0):
                got = value(channel_T(h, averaged_T(PointMass(a), s)), unit_atom(p))
                assert got == value(averaged_T(PointMass(a + h), s), unit_atom(p))
                seen = max(seen, got)
        assert seen > 0.0

    def test_averaged_state_shift_that_merges_atoms(self):
        # 0.0 - 1.0 and 1e-300 - 1.0 are both -1.0
        pure = PureState(make_vector([(0.0, 2 ** -0.5), (1e-300, 2 ** -0.5)]))
        with pytest.raises(ValueError, match="^shift 1.0 merges atoms of the state"):
            channel_T(1.0, averaged_T(Gaussian(1.0), pure))
        normal = NormalState((0.0, 1e-300), np.eye(2) / 2)
        with pytest.raises(ValueError, match="^shift 1.0 breaks the support of the state"):
            channel_T(1.0, averaged_T(Gaussian(1.0), normal))

    def test_shift_that_merges_atoms(self):
        # 0.0 - 1.0 and 1e-300 - 1.0 are both -1.0: S_1 is not isometric there
        s = PureState(make_vector([(0.0, 2 ** -0.5), (1e-300, 2 ** -0.5)]))
        with pytest.raises(ValueError, match="merges atoms"):
            channel_T(1.0, s)
        # a Rademacher law shifts the base by -1.0, which merges them too: the split
        # has no state for that piece, while the witness weighs the base's atoms
        avg = averaged_T(Rademacher(), s)
        mass = fold([abs(2 ** -0.5) ** 2] * 2)
        assert normality_witness(avg, [[-1.0, 1.0]]) == fold([0.5 * mass, 0.5 * mass])
        with pytest.raises(ValueError, match="merges atoms"):
            yosida_hewitt_split([(1.0, avg)])
        assert channel_T(1e-300, s).vector.frequencies == (-1e-300, 0.0)

    def test_shift_past_the_float_range(self):
        with pytest.raises(ValueError, match="-1e[+]308"):
            channel_T(-1e308, PureState(unit_atom(1e308)))


class TestAveragedT:
    def test_constructor_checks_its_inputs(self):
        # an averaged base, at any depth of a mixture, or a law that is not a
        # Distribution used to construct and fail later, naming a valid state
        s = uniform_pair()
        avg = averaged_T(Gaussian(1.0), s)
        deep = MixedState(((0.5, s), (0.5, MixedState(((0.5, PAIR_DENSITY), (0.5, avg))))))
        for base in (avg, MixedState(((0.5, s), (0.5, avg))), deep, 3):
            message = ("^averaged state base is not a pure, normal or mixed state with no "
                       f"averaged state in it: {re.escape(repr(base))}$")
            with pytest.raises(TypeError, match=message):
                AveragedState(base, Gaussian(1.0))
        for law in ("gauss", None):
            with pytest.raises(TypeError, match="^averaged state smoothing is not a "
                               f"Distribution: {law!r}$"):
                AveragedState(s, law)
        plain = MixedState(((0.5, s), (0.5, PAIR_DENSITY)))
        assert AveragedState(plain, Cauchy(1.0)).base is plain

    def test_channels_walk_the_base_once(self):
        # averaged_T of a plain mixture, channel_T of an averaged state and a
        # stack of laws build the states the constructor builds; the law is
        # still checked
        plain = MixedState(((0.5, uniform_pair()), (0.5, PAIR_DENSITY)))
        avg = averaged_T(Gaussian(1.0), plain)
        assert avg == AveragedState(plain, Gaussian(1.0))
        assert channel_T(0.5, avg) == AveragedState(channel_T(0.5, plain), Gaussian(1.0))
        assert averaged_T(Gaussian(2.0), avg) == AveragedState(plain, Gaussian(3.0))
        with pytest.raises(TypeError, match="^averaged state smoothing is not a Distribution: "
                           "'gauss'$"):
            averaged_T("gauss", plain)

    def test_smoothing_not_a_law_is_named_for_every_state(self):
        plain = uniform_pair()
        avg = averaged_T(Gaussian(1.0), plain)
        for s in (plain, PAIR_DENSITY, avg, MixedState(((0.5, plain), (0.5, avg)))):
            with pytest.raises(TypeError, match="^averaged state smoothing is not a "
                               "Distribution: 'x'$"):
                averaged_T("x", s)

    def test_unital(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        assert evaluate(avg, IDENTITY) == pytest.approx(1.0, abs=1e-14)

    def test_shift_evaluation_invariance_exact(self):
        gen = np.random.default_rng(5)
        laws = [Gaussian(1.0), Cauchy(0.5), Uniform(-1, 1), Rademacher(),
                FiniteMixture(((0.5, Gaussian(1.0)), (0.5, Rademacher())))]
        for i in range(100):
            s = PureState(random_unit_vector(gen))
            a = float(gen.uniform(-4, 4))
            d = laws[i % len(laws)]
            A = AlgebraElement.shift(a)
            assert evaluate(averaged_T(d, s), A) == evaluate(s, A)
        # a 2000-atom base on the grid (1/4) Z, where the shift pairs most atoms
        u = make_vector(zip(np.arange(2000) / 4.0,
                            gen.normal(size=2000) + 1j * gen.normal(size=2000)))
        s = PureState((1.0 / norm(u)) * u)
        A = AlgebraElement.shift(0.5)
        assert evaluate(averaged_T(Gaussian(1.0), s), A) == evaluate(s, A)

    def test_gaussian_indicator_value(self):
        # P(xi in [0,1]) for standard normal smoothing of the atom at 0
        avg = averaged_T(Gaussian(1.0), PureState(unit_atom(0.0)))
        val = evaluate(avg, AlgebraElement.mult(indicator(0.0, 1.0)))
        assert val == pytest.approx(normal_cdf(1.0) - normal_cdf(0.0), abs=1e-9)
        assert val == pytest.approx(0.34134, abs=1e-5)

    def test_normal_input_keeps_its_matrix(self):
        rho = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        avg = averaged_T(Gaussian(1.0), rho)
        assert avg.base is rho
        # S_1 pairs the atom at 1 with the atom at 0: rho[1, 0] = 0.5
        val = evaluate(avg, AlgebraElement.shift(1.0))
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="averaged evaluate takes E f(xi - q), but "
                       "<T_xi s, M_f> is E f(q - xi): it reflects the multiplier")
    @pytest.mark.parametrize("method", ["analytic", "mc"])
    @pytest.mark.parametrize("base", [
        PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)])),
        NormalState((0.0, 1.0), np.array([[0.36, -0.48j], [0.48j, 0.64]])),
    ], ids=["pure", "normal"])
    def test_averaging_by_point_mass_at_zero_is_the_identity(self, base, method):
        avg = averaged_T(PointMass(0.0), base)
        for A in (AlgebraElement.mult(indicator(0.5, 2.0)), AlgebraElement.modulation(0.7)):
            value = evaluate(avg, A, method, mc_samples=10, gen=SeededRng(1).stream(0))
            value = value.value if method == "mc" else value
            assert value == pytest.approx(evaluate(base, A), abs=1e-12)


class TestEvalAveragedOnMult:
    """Averaged states on multiplication operators M_f through ``evaluate``."""

    def test_constant_is_unital(self):
        avg = averaged_T(Cauchy(1.0), uniform_pair())
        assert evaluate(avg, AlgebraElement.mult(constant(1.0))) == pytest.approx(1.0)

    def test_single_atom_reduces_to_expectation(self):
        p0 = 0.7
        avg = averaged_T(Gaussian(1.0), PureState(unit_atom(p0)))
        M = AlgebraElement.mult(indicator(0.0, 2.0))
        # E f(xi - p0) = P(p0 <= xi <= 2 + p0)
        expected = normal_cdf(2.0 + p0) - normal_cdf(p0)
        assert evaluate(avg, M) == pytest.approx(expected, abs=1e-12)

    def test_mc_agrees_within_band(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        M = AlgebraElement.mult(indicator(-0.5, 1.5))
        a = evaluate(avg, M)
        est = evaluate(
            avg, M, method="mc", mc_samples=20_000, gen=SeededRng(31).stream(0)
        )
        assert abs(est.value - a) <= 4.0 * est.stderr

    def test_discrete_smoothing_exact_sum(self):
        avg = averaged_T(Rademacher(), PureState(unit_atom(0.0)))
        M = AlgebraElement.mult(indicator(0.5, 1.5))  # hit only by xi = +1
        assert evaluate(avg, M) == pytest.approx(0.5)


class TestEvaluateMonteCarlo:
    M = AlgebraElement.mult(indicator(-0.5, 1.5))

    @pytest.mark.parametrize("base", [
        PureState(unit_atom(0.3)),
        uniform_pair(),
        MixedState(((0.4, PureState(unit_atom(0.0))), (0.6, uniform_pair()))),
        NormalState((0.0, 0.5, 1.0), np.array([[0.5, 0.1, 0.2j],
                                               [0.1, 0.3, 0.0],
                                               [-0.2j, 0.0, 0.2]])),
    ], ids=["one-atom", "two-atom", "mixed", "normal"])
    def test_within_four_stderr(self, base):
        avg = averaged_T(Gaussian(1.0), base)
        est = evaluate(avg, self.M, "mc", mc_samples=20_000, gen=SeededRng(34).stream(0))
        assert isinstance(est, McEstimate)
        assert est.samples == 20_000
        assert abs(est.value - evaluate(avg, self.M)) <= 4.0 * est.stderr

    def test_multi_term_within_four_stderr(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        A = AlgebraElement.of([(1.0, indicator(-0.5, 1.5), 0.0), (0.5, wave(0.7), 1.0)])
        est = evaluate(avg, A, "mc", mc_samples=20_000, gen=SeededRng(36).stream(0))
        assert est.stderr > 0
        assert abs(est.value - evaluate(avg, A)) <= 4.0 * est.stderr

    @staticmethod
    def replay(avg, A, n, gen):
        """(mean, stderr) of g(xi_i) = <T_xi_i base, A>, formed pair by pair.

        The draws are taken once, as ``evaluate`` takes them; each atom pair
        of each term adds its weight times f(xi - q) to g.
        """
        xs = avg.smoothing.sample(gen, n)
        g = np.zeros(n, dtype=complex)
        base = avg.base
        comps = base.components if isinstance(base, MixedState) else ((1.0, base),)
        for w, st in comps:
            for c, f, a in A.terms:
                if isinstance(st, PureState):
                    pairs = [(ak.p - a, aj.c.conjugate() * ak.c)
                             for ak in st.vector for aj in st.vector if aj.p == ak.p - a]
                else:
                    p = st.support
                    pairs = [(pk - a, st.matrix[k, p.index(pk - a)])
                             for k, pk in enumerate(p) if pk - a in p]
                for q, r in pairs:
                    g += w * c * r * f.at(xs - q)
        mean = g.mean()
        return mean, math.sqrt(np.mean(np.abs(g - mean) ** 2) / n)

    def test_mixed_base_replays_per_draw_values(self):
        base = MixedState(((0.25, PureState(unit_atom(0.0))), (0.75, uniform_pair())))
        avg = averaged_T(Gaussian(1.0), base)
        A = AlgebraElement.of([(1.0, indicator(-0.5, 1.5), 0.0), (0.5, wave(0.7), 1.0)])
        est = evaluate(avg, A, "mc", mc_samples=5_000, gen=SeededRng(32).stream(0))
        mean, stderr = self.replay(avg, A, 5_000, SeededRng(32).stream(0))
        assert est.value == pytest.approx(mean, abs=1e-14)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        assert est.samples == 5_000
        assert abs(est.value - evaluate(avg, A)) <= 4.0 * est.stderr

    def test_normal_base_replays_per_draw_values(self):
        gen = np.random.default_rng(37)
        base = random_density(gen, 3)
        p = base.support
        A = AlgebraElement.of([(1.0, indicator(-0.5, 1.5), 0.0), (0.5j, wave(0.7), p[1] - p[0])])
        avg = averaged_T(Gaussian(1.0), base)
        est = evaluate(avg, A, "mc", mc_samples=5_000, gen=SeededRng(35).stream(0))
        assert abs(est.value - evaluate(avg, A)) <= 4.0 * est.stderr
        mean, stderr = self.replay(avg, A, 5_000, SeededRng(35).stream(0))
        assert est.value == pytest.approx(mean, abs=1e-14)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        assert est.samples == 5_000

    def test_one_sample_call_per_evaluate(self, monkeypatch):
        # every law class defines its own _draw, so the count is taken on Gaussian
        sizes = []
        draw = Gaussian._draw

        def counting(self, gen, size):
            sizes.append(size)
            return draw(self, gen, size)

        monkeypatch.setattr(Gaussian, "_draw", counting)
        A = AlgebraElement.of([(1.0, indicator(-0.5, 1.5), 0.0), (0.5, wave(0.7), 1.0)])
        conv = AlgebraElement.of([(0.3, ONE, 0.0), (0.7, ONE, 1.0)])
        for base in (uniform_pair(), MixedState(((0.4, PureState(unit_atom(0.0))),
                                                 (0.6, uniform_pair()))), PAIR_DENSITY):
            avg = averaged_T(Gaussian(1.0), base)
            sizes.clear()
            evaluate(avg, A, "mc", mc_samples=1_000, gen=SeededRng(38).stream(0))
            assert sizes == [1_000]
            sizes.clear()
            evaluate(avg, conv, "mc", mc_samples=1_000, gen=SeededRng(38).stream(0))
            assert sizes == []

    def test_split_with_singular_part(self):
        u = PureState(unit_atom(0.0))
        avg = averaged_T(Gaussian(1.0), u)
        split = split_state([(0.3, u), (0.7, avg)])
        est = evaluate(split, self.M, "mc", mc_samples=20_000, gen=SeededRng(33).stream(0))
        assert isinstance(est, McEstimate)
        assert abs(est.value - evaluate(split, self.M)) <= 4.0 * est.stderr
        # the normal part is exact; only the singular part carries an error
        alone = evaluate(avg, self.M, "mc", mc_samples=20_000, gen=SeededRng(33).stream(0))
        assert est.stderr == pytest.approx(0.7 * alone.stderr, rel=1e-12)

    def test_exact_kinds_ignore_mc(self):
        rho = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        discrete = split_state([(1.0, averaged_T(Rademacher(), uniform_pair()))])
        for s in (uniform_pair(), rho, MixedState(((1.0, uniform_pair()),)), discrete):
            assert evaluate(s, self.M, "mc") == evaluate(s, self.M)

    def test_missing_generator_raises(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        split = split_state([(0.5, uniform_pair()), (0.5, avg)])
        for s in (avg, split):
            with pytest.raises(ValueError, match="generator"):
                evaluate(s, self.M, "mc")
        with pytest.raises(ValueError, match="mc evaluation needs a generator"):
            expect_function(Gaussian(1.0), wave(1.0), 0.0, "mc")
        with pytest.raises(ValueError, match="mc evaluation needs a generator"):
            projector_value(avg, unit_atom(0.0), "mc")


class TestMethodValidation:
    def test_unknown_method_rejected_for_every_kind(self):
        A = AlgebraElement.shift(1.0)
        rho = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        split = split_state([(0.5, uniform_pair()), (0.5, avg)])
        # "quadrature", a rule with no error estimate, is gone
        for method in ("simpson", "quadrature"):
            for s in (uniform_pair(), rho, MixedState(((1.0, uniform_pair()),)), avg, split):
                with pytest.raises(ValueError, match="unknown expectation method"):
                    evaluate(s, A, method)
            with pytest.raises(ValueError, match="unknown expectation method"):
                projector_value(avg, unit_atom(0.0), method=method)
            with pytest.raises(ValueError, match="unknown expectation method"):
                expect_function(Gaussian(1.0), wave(1.0), 0.0, method)

    @pytest.mark.parametrize("n", [0, -5])
    def test_mc_samples_below_one_rejected(self, n):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        gen = SeededRng(35).stream(0)
        with pytest.raises(ValueError, match="mc_samples"):
            expect_function(Gaussian(1.0), wave(1.0), 0.0, "mc", mc_samples=n, gen=gen)
        with pytest.raises(ValueError, match="mc_samples"):
            projector_value(avg, unit_atom(0.0), "mc", mc_samples=n, gen=gen)
        with pytest.raises(ValueError, match="mc_samples"):
            evaluate(avg, AlgebraElement.shift(1.0), "mc", mc_samples=n, gen=gen)

    @pytest.mark.parametrize("n", [2.5, 1.0, True, np.float64(3.0)])
    def test_mc_samples_not_an_integer_rejected(self, n):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        conv = AlgebraElement.identity()
        gen = SeededRng(35).stream(0)
        with pytest.raises(ValueError, match="mc_samples"):
            expect_function(Gaussian(1.0), wave(1.0), 0.0, "mc", mc_samples=n, gen=gen)
        with pytest.raises(ValueError, match="mc_samples"):
            projector_value(avg, unit_atom(0.0), "mc", mc_samples=n, gen=gen)
        for A in (AlgebraElement.shift(1.0), conv):
            with pytest.raises(ValueError, match="mc_samples"):
                evaluate(avg, A, "mc", mc_samples=n, gen=gen)

    @pytest.mark.parametrize("n", [np.int64(7), np.int32(7), np.uint16(7)])
    def test_numpy_integer_mc_samples_accepted(self, n):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        est = evaluate(avg, AlgebraElement.shift(1.0), "mc", mc_samples=n,
                       gen=SeededRng(35).stream(0))
        assert est == evaluate(avg, AlgebraElement.shift(1.0), "mc", mc_samples=7,
                               gen=SeededRng(35).stream(0))
        assert expect_function(Gaussian(1.0), wave(1.0), 0.0, "mc", mc_samples=n,
                               gen=SeededRng(35).stream(0)).samples == 7


def wave_expectation(d, a, x):
    """E e^{ia(xi - x)} = e^{-iax} chi(a)."""
    return cmath.exp(-1j * a * x) * d.chi(a)


MIXTURE = FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(1.0))))


class TestExpectFunction:
    def test_mc_takes_one_point(self):
        # an array x would pair draw i with point i
        with pytest.raises(ValueError, match=r"^mc takes one point x, got an array of shape \(2,\)$"):
            expect_function(Gaussian(), wave(1.0), np.array([0.0, 1.0]), "mc", 2,
                            SeededRng(0).stream(0))

    @pytest.mark.parametrize("f", [indicator(-1.0, 0.5), wave(1.3) * indicator(-1.0, 0.5),
                                   ONE, wave(1.3)],
                             ids=["interval", "interval-wave", "line", "line-wave"])
    @pytest.mark.parametrize("d", [Gaussian(1.0), MIXTURE], ids=["gaussian", "mixture"])
    def test_array_x_is_checked_under_both_multiplier_kinds(self, d, f):
        # a 0-d or 2-d array x is named, and so is the first point that is not finite
        for x in (np.array(0.5), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"x must be a number or a 1-d array, got an array of shape {x.shape}") + "$"):
                expect_function(d, f, x)
        for x, bad in (([0.0, math.inf], "inf"), ([math.nan, 0.5, -math.inf], "nan")):
            with pytest.raises(ValueError, match=f"^E f\\(xi - x\\) needs a finite x, got x = {bad}$"):
                expect_function(d, f, np.array(x))
            with pytest.raises(ValueError, match=f"^E f\\(xi - x\\) needs a finite x, got x = {bad}$"):
                expect_function(d, f, float(bad))

    @pytest.mark.parametrize("d", [PointMass(-1.0), Gaussian(0.7), MIXTURE,
                                   FiniteMixture(((0.2, Rademacher()), (0.4, Gaussian(1.0)),
                                                  (0.4, Cauchy(0.5))))],
                             ids=["point", "gaussian", "mixture", "three-parts"])
    def test_array_x_takes_the_split_once(self, d, monkeypatch):
        # the values are those of the points one at a time, bit for bit
        x = np.array([0.0, -0.3, 1.7, 2.5, -4.0, 0.125, 3.0, -0.0])
        f = wave(-0.4).shifted(0.7) * indicator(-1.0, 0.5)
        want = [expect_function(d, f, y) for y in x.tolist()]
        splits, split = [], type(d).lebesgue_split
        monkeypatch.setattr(type(d), "lebesgue_split",
                            lambda self: splits.append(self) or split(self))
        got = expect_function(d, f, x)
        assert hexes(*got.tolist()) == hexes(*want)
        assert splits == [d]

    def test_discrete_atom_phase_overflow_names_the_point(self):
        # analytic: the atom's phase 1e300 * 1e10 overflows inside the interval
        f = wave(1e300) * indicator(-1e12, 1e12)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"E f(xi - x) for f = {f!r} under PointMass(a=10000000000.0) is not finite "
                "at x = 0.0: a phase a (xi - x) overflows") + "$"):
            expect_function(PointMass(1e10), f, 0.0)

    def test_cauchy_wave_closed_form(self):
        val = expect_function(Cauchy(1.0), wave(1.0), 3.0)
        assert abs(val - wave_expectation(Cauchy(1.0), 1.0, 3.0)) <= 1e-12
        assert val.imag == pytest.approx(-0.0519, abs=1e-4)

    @pytest.mark.parametrize("d", [Gaussian(0.7), Cauchy(0.5), Uniform(-1, 2), MIXTURE])
    def test_composed_probe_is_a_shifted_wave(self, d):
        h, b, x = 0.75, 1.3, -0.4
        A = compose(AlgebraElement.shift(h), AlgebraElement.modulation(b))
        [(c, f, a)] = A.terms
        assert (c, f, a) == (wave(b).shifted(h).c, wave(b), h)
        val = c * expect_function(d, f, x)
        assert abs(val - wave_expectation(d, b, x - h)) <= 1e-12
        # on the pair of atoms {0, h}, only p_j = 0 meets p_k - h = 0
        u = make_vector([(0.0, 2 ** -0.5), (h, 2 ** -0.5)])
        got = evaluate(averaged_T(d, PureState(u)), A)
        assert abs(got - 0.5 * wave_expectation(d, b, -h)) <= 1e-12

    @pytest.mark.parametrize("d", [Gaussian(0.7), Cauchy(0.5), Uniform(-1, 2), MIXTURE])
    def test_adjoint_wave(self, d):
        b, x = 0.9, 2.5
        [(c, f, a)] = adjoint(AlgebraElement.modulation(b)).terms
        assert f == wave(-b)
        assert abs(expect_function(d, f, x) - wave_expectation(d, -b, x)) <= 1e-12

    def test_gauss_rule_phase_overflow_names_the_point(self):
        # a phase a (xi - x) of a Gauss-rule node past the float range
        f = Multiplier(a=1e308, lo=0.0, hi=10.0)
        with pytest.raises(ValueError) as err:
            expect_function(Gaussian(1.0), f, 0.0)
        assert str(err.value) == (f"E f(xi - x) for f = {f!r} under Gaussian(D=1.0) is not "
                                  "finite at x = 0.0: a phase a (xi - x) overflows")

    def test_wave_phase_overflow_names_the_point(self):
        # cmath raised a bare "math domain error" here
        for x in (1e308, np.array([0.0, -1e308])):
            with pytest.raises(ValueError, match=r"x = -?1e\+308"):
                expect_function(Gaussian(1.0), wave(10.0), x)

    def test_mixture_wave(self):
        a, x = 1.7, 0.3
        want = cmath.exp(-1j * a * x) * (0.5 * math.cos(a) + 0.5 * math.exp(-0.5 * a * a))
        assert abs(expect_function(MIXTURE, wave(a), x) - want) <= 1e-12

    @pytest.mark.parametrize("d", [Gaussian(0.7), Cauchy(0.5), Uniform(-1, 2)])
    def test_product_closed_forms(self, d):
        x = 0.3
        val = expect_function(d, wave(1.3) * wave(0.4), x)
        assert abs(val - wave_expectation(d, 1.7, x)) <= 1e-12
        val = expect_function(d, indicator(-1, 1) * indicator(0, 2), x)
        assert abs(val - (d.cdf(1 + x) - d.cdf(x))) <= 1e-12

    @pytest.mark.parametrize("d", [Gaussian(0.7), Cauchy(0.5), Uniform(-1, 2)])
    def test_wave_indicator_product(self, d):
        x, lo, hi = 0.3, -0.5, 1.5
        ys, ws = d.gauss_rule(512, lo + x, hi + x)
        want = complex(np.dot(ws, np.exp(1.1j * (ys - x))))
        assert abs(expect_function(d, wave(1.1) * indicator(lo, hi), x) - want) <= 1e-12

    def test_analytic_raises_when_unresolved(self):
        # a fast wave on [-1, 1] under a narrow Cauchy law defeats both orders
        with pytest.raises(QuadratureError):
            expect_function(Cauchy(0.1), Multiplier(1, 40.0, -1, 1), 0.0)

    def test_mc_vectorized_matches_pointwise(self):
        d, x = Gaussian(1.0), 0.4
        for f in (wave(1.1).shifted(0.5), indicator(-1.0, 0.5), constant(0.5j)):
            est = expect_function(d, f, x, method="mc", mc_samples=2_000,
                                  gen=SeededRng(3).stream(0))
            xs = d.sample(SeededRng(3).stream(0), 2_000)
            pointwise = np.mean([f(float(s) - x) for s in xs])
            assert abs(est.value - pointwise) <= 1e-12
            assert est.samples == 2_000

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            expect_function(Gaussian(1.0), wave(1.0), 0.0, method="simpson")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the minor page faults that Linux reports")
    @pytest.mark.parametrize("doc", [
        {"kind": "gaussian", "D": 1.0}, {"kind": "uniform", "a": -1.0, "b": 1.0},
        {"kind": "cauchy", "gamma": 1.0}, {"kind": "rademacher"},
        {"kind": "pointmass", "a": 0.5}, MIXTURE.to_json(),
    ], ids=["gaussian", "uniform", "cauchy", "rademacher", "pointmass", "mixture"])
    def test_mc_reuses_its_memory(self, doc):
        # a third array of n values, or the parts of a mixture's draws next to
        # the draws, leave the allocator a top chunk that it hands back to the
        # system after each call; each call then faults its pages in again
        # (about 750 faults at n = 1e5)
        code = f"""
import resource
import numpy as np
from atomdyn.algebra import Multiplier
from atomdyn.channels import expect_function
from atomdyn.rand import distribution_from_json
d, gen, faults = distribution_from_json({doc!r}), np.random.default_rng(0), []
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    expect_function(d, Multiplier(1.0, 0.7), 0.3, "mc", 100_000, gen)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[3:]))
"""
        src = str(Path(channels.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert int(out.stdout) < 64


class TestShiftConvolution:
    """Averaged states on convolutions sum_j w_j S_{a_j} through ``evaluate``."""

    def test_identity_measure(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        val = evaluate(avg, AlgebraElement.of([(1.0, ONE, 0.0)]))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_half_overlap(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        val = evaluate(avg, AlgebraElement.of([(1.0, ONE, 1.0)]))
        assert val == pytest.approx(0.5)

    def test_off_grid_measure_vanishes(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        val = evaluate(avg, AlgebraElement.of([(1.0, ONE, 0.37)]))
        assert val == 0.0

    def test_matches_unaveraged_evaluation(self):
        gen = np.random.default_rng(6)
        A = AlgebraElement.of([(0.3, ONE, 0.0), (0.5j, ONE, 1.0), (0.2, ONE, -2.0)])
        for _ in range(20):
            s = PureState(random_unit_vector(gen))
            avg = averaged_T(Gaussian(1.0), s)
            assert evaluate(avg, A) == pytest.approx(evaluate(s, A), abs=1e-13)

    def test_matches_unaveraged_evaluation_exactly(self):
        # E f = 1 for f = ONE under every law: the value on the base, bit for bit
        gen = np.random.default_rng(6)
        A = AlgebraElement.of([(0.3, ONE, 0.0), (0.5j, ONE, 1.0), (0.2, ONE, -2.0)])
        laws = (Gaussian(1.0), Cauchy(0.5), Rademacher(), MIXTURE)
        for j in range(20):
            s = PureState(random_unit_vector(gen))
            for base in (s, MixedState(((0.5, s), (0.5, uniform_pair()))), random_density(gen, 3)):
                avg = averaged_T(laws[j % len(laws)], base)
                assert evaluate(avg, A) == evaluate(base, A)
                draws = SeededRng(j).stream(0)
                est = evaluate(avg, A, "mc", mc_samples=1_000, gen=draws)
                assert est == McEstimate(evaluate(base, A), 0.0, 1_000)
                # no draw was taken from the generator
                assert draws.normal() == SeededRng(j).stream(0).normal()


class TestSingularity:
    def test_continuous_smoothing_vanishes_analytic(self):
        gen = np.random.default_rng(7)
        for d in (Gaussian(1.0), Cauchy(0.5)):
            for _ in range(20):
                u = random_unit_vector(gen)
                v = random_unit_vector(gen)
                avg = averaged_T(d, PureState(u))
                assert projector_value(avg, v) == 0.0

    def test_continuous_smoothing_vanishes_mc(self):
        gen = np.random.default_rng(8)
        u = random_unit_vector(gen)
        v = random_unit_vector(gen)
        avg = averaged_T(Gaussian(1.0), PureState(u))
        val = projector_value(avg, v, method="mc", mc_samples=10_000,
                              gen=SeededRng(41).stream(0))
        assert val == 0.0

    def test_point_mass_lands_on_target(self):
        avg = averaged_T(PointMass(2.0), PureState(unit_atom(0.0)))
        assert projector_value(avg, unit_atom(-2.0)) == 1.0

    def test_mc_follows_the_shift_rule(self):
        # 1e16 - 1.0 rounds to 1e16, so S_1 maps the atom at 1e16 onto itself
        u = unit_atom(1e16)
        avg = averaged_T(PointMass(1.0), PureState(u))
        assert projector_value(avg, u) == 1.0
        assert projector_value(avg, u, method="mc", mc_samples=100,
                               gen=SeededRng(3).stream(0)) == 1.0

    def test_requires_unit_direction(self):
        avg = averaged_T(Gaussian(1.0), PureState(unit_atom(0.0)))
        with pytest.raises(ValueError):
            projector_value(avg, make_vector([(0.0, 2.0)]))

    def test_normality_witness_cases(self):
        pure = PureState(unit_atom(0.0))
        assert normality_witness(pure, [[0.0]]) == 1.0
        assert normality_witness(pure, [[1.0]]) == 0.0
        avg = averaged_T(Gaussian(1.0), pure)
        assert normality_witness(avg, [[0.0], [0.0, 1.0, 2.0]]) == 0.0
        # discrete smoothing spreads mass onto shifted atoms
        avg_d = averaged_T(Rademacher(), pure)
        assert normality_witness(avg_d, [[-1.0, 1.0]]) == pytest.approx(1.0)
        assert normality_witness(avg_d, [[-1.0]]) == pytest.approx(0.5)
        # a normal base shifts its support, one copy per atom of the law
        avg_n = averaged_T(Rademacher(), PAIR_DENSITY)
        assert normality_witness(avg_n, [[-1.0, 0.0, 1.0, 2.0]]) == 1.0
        assert normality_witness(avg_n, [[-1.0], [1.0, 2.0]]) == 0.5
        assert normality_witness(averaged_T(Gaussian(1.0), PAIR_DENSITY), [[0.0, 1.0]]) == 0.0
        with pytest.raises(ValueError, match="must be non-empty"):
            normality_witness(pure, [])

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5)], ids=["gaussian", "cauchy"])
    def test_normal_base_vanishes(self, d):
        gen = np.random.default_rng(9)
        for m in (1, 3, 8):
            s = averaged_T(d, random_density(gen, m))
            v = random_unit_vector(gen)
            assert projector_value(s, v) == 0.0
            assert projector_value(s, v, method="mc", mc_samples=2_000,
                                   gen=SeededRng(42).stream(0)) == 0.0

    def test_analytic_without_atoms_skips_the_profile(self, monkeypatch):
        gen = np.random.default_rng(11)
        u = random_unit_vector(gen)
        bases = [PureState(u), random_density(gen, 8),
                 MixedState(((0.5, PureState(u)), (0.5, uniform_pair())))]

        def refuse(*args, **kwargs):
            raise AssertionError("overlap profile of a law with no atoms")

        monkeypatch.setattr(channels, "_projector_profile", refuse)
        for d in (Gaussian(1.0), FiniteMixture(((0.5, Cauchy(0.5)), (0.5, Uniform(-1, 2))))):
            for base in bases:
                assert projector_value(averaged_T(d, base), u) == 0.0

    @pytest.mark.parametrize("d", [Rademacher(), PointMass(1.0), PointMass(-2.0)],
                             ids=["rademacher", "point+1", "point-2"])
    def test_normal_base_matches_pure(self, d):
        # rho = |u><u| on an integer grid, where the law's shifts hit v
        gen = np.random.default_rng(10)
        grid = np.arange(-3.0, 4.0)
        positive = 0
        for _ in range(10):
            u = make_vector(zip(gen.choice(grid, 4, replace=False),
                                gen.normal(size=4) + 1j * gen.normal(size=4)))
            u = (1.0 / norm(u)) * u
            v = make_vector(zip(gen.choice(grid, 3, replace=False),
                                gen.normal(size=3) + 1j * gen.normal(size=3)))
            v = (1.0 / norm(v)) * v
            pure, normal = averaged_T(d, PureState(u)), averaged_T(d, rank_one(u))
            want = projector_value(pure, v)
            positive += want > 0.0
            assert abs(projector_value(normal, v) - want) <= 1e-15
            mc = [projector_value(s, v, "mc", mc_samples=500, gen=SeededRng(43).stream(0))
                  for s in (pure, normal)]
            assert abs(mc[1] - mc[0]) <= 1e-15
        assert positive >= 5

    def test_uncovered_witness_is_a_float(self):
        gen = np.random.default_rng(3)
        states = [PureState(unit_atom(0.0)), random_density(gen, 3),
                  MixedState(((0.5, PureState(unit_atom(0.0))), (0.5, uniform_pair())))]
        for s in states:
            w = normality_witness(s, [[100.0]])
            assert w == 0.0 and type(w) is float


class TestDephasing:
    def test_channel_phi_phases(self):
        rho = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = averaged_Phi(PointMass(1.3), rho)
        assert out.matrix[0, 1] == pytest.approx(0.5 * np.exp(-1.3j))
        assert out.matrix[0, 0] == pytest.approx(0.5)

    def test_channel_phi_is_the_plain_phase_product(self):
        # the point mass kernel rounds as the phase matrix written out does
        gen = np.random.default_rng(20)
        for m in (1, 2, 3, 5, 8):
            off_grid = random_density(gen, m)
            on_grid = NormalState(tuple(np.sort(gen.choice(np.arange(-16, 17) / 4.0, m,
                                                            replace=False)).tolist()),
                                  off_grid.matrix)
            for s in (off_grid, on_grid):
                p = np.array(s.support)
                for h in (0.0, -0.0, 1e-300, 1.3, -1.3, 100.0 * gen.normal()):
                    want = np.exp(1j * h * (p[:, None] - p[None, :])) * s.matrix
                    assert averaged_Phi(PointMass(h), s).matrix.tobytes() == want.tobytes()

    def test_channel_phi_phase_overflow_raises(self):
        s = NormalState((0.0, 1e10), PAIR_DENSITY.matrix)
        with pytest.raises(ValueError,
                           match=r"PointMass\(a=1e\+300\) is not finite at x = -10000000000\.0:"):
            averaged_Phi(PointMass(1e300), s)

    def test_channel_phi_identity_and_diagonal(self):
        gen = np.random.default_rng(9)
        rho = random_density(gen, 4)
        assert np.allclose(averaged_Phi(PointMass(0.0), rho).matrix, rho.matrix)
        diag = NormalState((0.0, 1.0, 2.0), np.diag([0.2, 0.3, 0.5]).astype(complex))
        assert np.allclose(averaged_Phi(PointMass(2.7), diag).matrix, diag.matrix)

    def test_averaged_phi_gaussian_factors(self):
        rho = NormalState((0.0, 2.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        D = 1.5
        out = averaged_Phi(Gaussian(D), rho)
        assert out.matrix[0, 1] == pytest.approx(0.5 * math.exp(-0.5 * D * 4.0))
        assert out.matrix[0, 0] == pytest.approx(0.5)

    def test_averaged_phi_preserves_state_properties(self):
        gen = np.random.default_rng(10)
        for _ in range(100):
            m = int(gen.integers(2, 7))
            rho = random_density(gen, m)
            out = averaged_Phi(Gaussian(1.0), rho)
            M = out.matrix
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12
            assert abs(np.trace(M).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(M).min() >= -1e-10
            # entrywise factors match the closed-form kernel
            K = dephasing_kernel(Gaussian(1.0), rho.support)
            assert np.max(np.abs(M - K * rho.matrix)) <= 1e-15

    def test_averaged_phi_mc_oracle(self):
        gen = np.random.default_rng(11)
        rho = random_density(gen, 3)
        d = Gaussian(1.0)
        n = 100_000
        xs = d.sample(SeededRng(53).stream(0), n)
        p = np.array(rho.support)
        delta = p[:, None] - p[None, :]
        mean = np.mean(np.exp(1j * xs[:, None, None] * delta[None, :, :]), axis=0)
        stderr = np.std(
            np.exp(1j * xs[:, None, None] * delta[None, :, :]), axis=0
        ) / math.sqrt(n)
        expected = dephasing_kernel(d, rho.support)
        assert np.all(np.abs(mean - expected) <= 4.0 * stderr + 1e-12)

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5), Uniform(-1, 2),
                                   Rademacher(), MIXTURE])
    def test_kernel_one_chi_call_per_difference(self, d):
        calls = []

        class Counted(type(d)):
            def chi(self, x):
                calls.append(x)
                return super().chi(x)

        counted = Counted(**{k: getattr(d, k) for k in d._fields})
        support = tuple(np.arange(-100, 100) / 4.0)  # m = 200 on a 200-point grid
        rho = NormalState(support[:3], np.eye(3) / 3.0)
        K = dephasing_kernel(counted, support)
        assert len(calls) <= 2 * len(support) - 1
        loop = np.array([[d.chi(pj - pk) for pk in support] for pj in support])
        assert np.all(K == loop)
        out = averaged_Phi(d, rho).matrix
        assert np.all(out == np.array([[d.chi(pj - pk) for pk in rho.support]
                                       for pj in rho.support]) * rho.matrix)

    def test_kernel_at_far_apart_support_points(self):
        # support points 1e308 apart made chi raise a bare "math domain error"
        rho = NormalState((-5e307, 5e307), np.full((2, 2), 0.5, dtype=complex))
        out = averaged_Phi(Uniform(-1.0, 2.0), rho).matrix
        assert np.all(np.diag(out) == 0.5) and np.all(np.abs(out) <= 0.5)
        assert abs(out[0, 1]) <= 0.5 / 1.5e308
        with pytest.raises(ValueError, match=r"PointMass\(a=2\.0\).*x = -?1e\+308"):
            averaged_Phi(PointMass(2.0), rho)

    def test_rank_one_matches_modulated_vector(self):
        # conjugating a rank-1 projector reproduces the modulated vector
        u = make_vector([(0.0, 0.6), (1.0, 0.8)])
        rho = NormalState(
            (0.0, 1.0),
            np.array([[0.36, 0.48], [0.48, 0.64]], dtype=complex),
        )
        h = 0.9
        out = averaged_Phi(PointMass(h), rho)
        from atomdyn.algebra import apply_mod

        mu = apply_mod(h, u)
        expected = np.array(
            [
                [abs(mu.amplitude(0.0)) ** 2,
                 mu.amplitude(0.0) * mu.amplitude(1.0).conjugate()],
                [mu.amplitude(1.0) * mu.amplitude(0.0).conjugate(),
                 abs(mu.amplitude(1.0)) ** 2],
            ]
        )
        assert np.max(np.abs(out.matrix - expected)) <= 1e-14


class TestComposedDephasing:
    """chi(0) is exactly 1, so the kernel's diagonal is, and the trace stays 1."""

    def test_ten_thousand_compositions_keep_the_trace(self):
        # the weights sum to 1 - 2^-53 in floats, and the parent's kernel
        # diagonal did too: the trace check failed at the 9008th composition
        law = FiniteMixture(((0.7, Gaussian(0.01)), (0.2, Cauchy(0.01)), (0.1, Rademacher())))
        s = NormalState((0.0, 1.0), np.array([[0.5, 0.1], [0.1, 0.5]]))
        for _ in range(10_000):
            s = averaged_Phi(law, s)
        assert np.trace(s.matrix) == 1 and np.all(np.diag(s.matrix) == 0.5)

    def test_weights_a_few_ulps_off(self):
        law = FiniteMixture(((0.5 + 4.5e-13, Gaussian(1.0)), (0.5 + 4.5e-13, Rademacher())))
        assert np.all(np.diag(dephasing_kernel(law, (0.0, 1.0, 2.5))) == 1)
        s = averaged_Phi(law, averaged_Phi(law, PAIR_DENSITY))
        assert np.trace(s.matrix) == 1

    def test_weights_a_few_ulps_off_keep_the_cone(self):
        # chi is sum w_i chi_i over sum w_i, so |chi| <= 1 and the composed channel
        # stays PSD; the unnormalised sum gave |chi(1e-9)| = 1.0000000000009 and a
        # smallest eigenvalue of -4.5e-10 after 1000 compositions
        law = FiniteMixture(((0.5 + 4.5e-13, Gaussian(1.0)), (0.5 + 4.5e-13, Rademacher())))
        assert abs(law.chi(1e-9)) <= 1.0
        s = NormalState((0.0, 1e-9), [[0.5, 0.5], [0.5, 0.5]])
        for _ in range(1000):
            s = averaged_Phi(law, s)
        assert np.linalg.eigvalsh(s.matrix).min() >= -1e-15


class TestSemigroups:
    GRID = [0.0, 0.1, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_T_composition_on_probes(self, kind):
        fam = ConvolutionFamily(kind)
        rho = uniform_pair()
        probes = [
            AlgebraElement.shift(1.0),
            AlgebraElement.mult(indicator(0.0, 1.0)),
            AlgebraElement.of([(0.5, indicator(-1, 1), 1.0)]),
        ]
        for t in self.GRID:
            for s in self.GRID:
                lhs = semigroup_T(fam, t, semigroup_T(fam, s, rho))
                rhs = semigroup_T(fam, t + s, rho)
                for A in probes:
                    assert abs(evaluate(lhs, A) - evaluate(rhs, A)) <= 1e-10

    def test_T_at_zero_is_identity(self):
        fam = ConvolutionFamily("gaussian")
        rho = uniform_pair()
        assert semigroup_T(fam, 0.0, rho) == rho

    def test_T_shift_probe_independent_of_t(self):
        fam = ConvolutionFamily("gaussian")
        rho = uniform_pair()
        A = AlgebraElement.shift(1.0)
        base = evaluate(rho, A)
        for t in (0.1, 1.0, 5.0):
            assert evaluate(semigroup_T(fam, t, rho), A) == base

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_Phi_composition_entrywise(self, kind):
        fam = ConvolutionFamily(kind)
        gen = np.random.default_rng(12)
        rho = random_density(gen, 4)
        for t in self.GRID:
            for s in self.GRID:
                m1 = semigroup_Phi(fam, t, semigroup_Phi(fam, s, rho)).matrix
                m2 = semigroup_Phi(fam, t + s, rho).matrix
                assert np.max(np.abs(m1 - m2)) <= 1e-12

    def test_Phi_cauchy_factor(self):
        rho = NormalState((0.0, 1.5), np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = semigroup_Phi(ConvolutionFamily("cauchy"), 2.0, rho)
        assert out.matrix[0, 1] == pytest.approx(0.5 * math.exp(-2.0 * 1.5))

    def test_Phi_full_dephasing_limit(self):
        rho = NormalState((0.0, 1.0), np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = semigroup_Phi(ConvolutionFamily("gaussian"), 200.0, rho)
        assert abs(out.matrix[0, 1]) <= 1e-12
        assert out.matrix[0, 0] == pytest.approx(0.5)

    def test_negative_time_rejected(self):
        fam = ConvolutionFamily("gaussian")
        # the family's one check rejects t for both semigroups
        message = "^family parameter must be non-negative and finite: -0.5$"
        with pytest.raises(ValueError, match=message):
            semigroup_T(fam, -0.5, uniform_pair())
        with pytest.raises(ValueError, match=message):
            semigroup_Phi(fam, -0.5, PAIR_DENSITY)


class TestYosidaHewitt:
    def test_purely_normal(self):
        p, _, singular = yosida_hewitt_split([(1.0, PureState(unit_atom(0.0)))])
        assert p == 1.0
        assert singular is None

    def test_purely_singular(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        p, normal, _ = yosida_hewitt_split([(1.0, avg)])
        assert p == 0.0
        assert normal is None

    @pytest.mark.parametrize("law", [
        Gaussian(1.0), FiniteMixture(tuple((0.1, Gaussian(1.0 + j)) for j in range(10)))],
        ids=["gaussian", "ten-tenths"])
    def test_law_with_no_atoms_keeps_the_average(self, law):
        # the general split: no atoms, continuous weight 1, the law its own part
        avg = averaged_T(law, uniform_pair())
        assert yosida_hewitt_split([(1.0, avg)]) == (0.0, None, avg)

    def test_normal_part_of_pure_and_normal_is_a_state(self):
        pure = PureState(unit_atom(0.0))
        _, part, _ = yosida_hewitt_split([(0.5, pure), (0.5, PAIR_DENSITY)])
        assert part == MixedState(((0.5, pure), (0.5, PAIR_DENSITY)))
        for A in (IDENTITY, AlgebraElement.shift(1.0), AlgebraElement.mult(indicator(-0.5, 0.5))):
            want = 0.5 * evaluate(pure, A) + 0.5 * evaluate(PAIR_DENSITY, A)
            assert abs(evaluate(part, A) - want) <= 1e-15

    def test_mixed_split_and_witness(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        components = [(0.3, PureState(unit_atom(0.0))), (0.7, avg)]
        p, _, _ = yosida_hewitt_split(components)
        assert p == pytest.approx(0.3, abs=1e-12)
        assert normality_witness(split_state(components), [[0.0, 1.0]]) == pytest.approx(
            0.3, abs=1e-12)

    def test_discrete_averaged_goes_normal(self):
        avg = averaged_T(Rademacher(), PureState(unit_atom(0.0)))
        p, _, _ = yosida_hewitt_split([(1.0, avg)])
        assert p == 1.0
        # a normal base: its shifted copies join the normal part as they are
        avg = averaged_T(Rademacher(), PAIR_DENSITY)
        singular = averaged_T(Gaussian(1.0), PAIR_DENSITY)
        p, normal, _ = yosida_hewitt_split([(0.4, avg), (0.6, singular)])
        assert p == 0.4
        # the shifted bases stay normal states: S_{-1} and S_{+1} of the pair
        assert [(w, st.support) for w, st in normal.components] == [
            (0.5, (1.0, 2.0)), (0.5, (-1.0, 0.0))]
        split = split_state([(0.4, avg), (0.6, singular)])
        assert normality_witness(split, [[-1.0, 0.0, 1.0, 2.0]]) == pytest.approx(0.4)
        for A in (IDENTITY, AlgebraElement.shift(1.0), AlgebraElement.mult(indicator(-1, 1))):
            direct = 0.4 * evaluate(avg, A) + 0.6 * evaluate(singular, A)
            assert abs(evaluate(split, A) - direct) <= 1e-12

    @pytest.mark.parametrize("base", [uniform_pair(), PAIR_DENSITY], ids=["pure", "normal"])
    def test_two_part_law_splits(self, base):
        # the atoms' shifted bases are normal, the Gaussian average singular
        law = FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(1.0))))
        avg = averaged_T(law, base)
        p, normal, singular = yosida_hewitt_split([(1.0, avg)])
        assert p == 0.5
        weights = [p * w for w, _ in normal.components] + [1.0 - p]
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        assert singular == averaged_T(Gaussian(1.0), base)
        split = split_state([(1.0, avg)])
        # even probes: the value of the average does not see the sign of xi
        for A in (IDENTITY, AlgebraElement.shift(1.0), AlgebraElement.shift(-1.0),
                  AlgebraElement.mult(indicator(-0.5, 0.5)),
                  AlgebraElement.of([(1.0, indicator(-1.5, 1.5), 1.0)])):
            assert abs(evaluate(split, A) - evaluate(avg, A)) <= 1e-12

    def test_evaluation_linearity(self):
        avg = averaged_T(Gaussian(1.0), uniform_pair())
        normal = PureState(unit_atom(0.0))
        split = split_state([(0.4, normal), (0.6, avg)])
        probes = [IDENTITY, AlgebraElement.shift(1.0),
                  AlgebraElement.mult(indicator(-1, 1))]
        for A in probes:
            direct = 0.4 * evaluate(normal, A) + 0.6 * evaluate(avg, A)
            assert abs(evaluate(split, A) - direct) <= 1e-12

    @pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8, 1e-12])
    def test_a_small_continuous_weight_keeps_its_digits(self, c):
        # each part is normalised by its own weight: 1 - p would lose the
        # digits of a singular weight near c, and its mixture fail to sum to 1
        law = FiniteMixture(((0.3 - c / 2, Rademacher()), (0.7 - c / 2, PointMass(0.25)),
                             (c, Gaussian(1.0))))
        mix = MixedState(tuple((w, averaged_T(law, PureState(unit_atom(q))))
                               for w, q in ((0.2, 0.0), (0.3, 1.0), (0.5, 2.0))))
        p, normal, singular = yosida_hewitt_split([(1.0, mix)])
        for part in (normal, singular):
            assert abs(math.fsum(w for w, _ in part.components) - 1.0) <= 4 * math.ulp(1.0)
        cover = [q - loc for q in (0.0, 1.0, 2.0) for loc in (-1.0, 0.25, 1.0)]
        assert abs(normality_witness(mix, [cover]) - p) <= 1e-15
        assert abs(p - (1.0 - c)) <= 1e-15

    def test_witness_of_atoms_a_shift_merges(self):
        # T_{-1} lands both atoms on 1.0 and T_{+1} both on -1.0; the state is valid
        # (1 on the identity), and each piece's mass is its base's, folded in atom order
        s = averaged_T(Rademacher(), PureState(make_vector([(0.0, 0.6), (1e-300, 0.8)])))
        assert evaluate(s, IDENTITY) == 1.0
        mass = fold([0.6 ** 2, 0.8 ** 2])
        assert normality_witness(s, [[1.0]]) == fold([0.5 * mass, 0.5 * 0.0])
        assert normality_witness(s, [[1.0, -1.0]]) == fold([0.5 * mass, 0.5 * mass])
        assert normality_witness(s, [[0.0, 1e-300]]) == 0.0
        with pytest.raises(ValueError, match="^shift -1.0 merges atoms of the state"):
            yosida_hewitt_split([(1.0, s)])

    def test_several_averaged_states_keep_the_tuple(self):
        # the split stays the tuple (p, normal_part, singular_part), and a
        # singular part of several averaged states is their MixedState
        s = PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)]))
        g, c = averaged_T(Gaussian(1.0), s), averaged_T(Cauchy(1.0), s)
        p, normal, singular = yosida_hewitt_split([(0.5, g), (0.5, c)])
        assert p == 0.0 and normal is None
        assert singular == MixedState(((0.5, g), (0.5, c)))
        A = AlgebraElement.mult(indicator(-0.5, 1.5))
        assert evaluate(singular, A) == 0.3660730309828851
        assert evaluate(singular, A) == 0.5 * evaluate(g, A) + 0.5 * evaluate(c, A)

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="weights must sum to 1, got 0.5"):
            yosida_hewitt_split([(0.5, PureState(unit_atom(0.0)))])
        with pytest.raises(ValueError, match="weights must be non-negative"):
            yosida_hewitt_split([(-0.5, PureState(unit_atom(0.0))), (1.5, uniform_pair())])

    def test_nan_weight_rejected(self):
        s = PureState(unit_atom(0.0))
        with pytest.raises(ValueError, match="^weights must be finite, got nan$"):
            yosida_hewitt_split([(math.nan, s), (1.0, s)])

    def test_weight_zero_component_is_dropped(self):
        s = PureState(unit_atom(0.0))
        split = yosida_hewitt_split([(1.0, s), (0.0, averaged_T(Gaussian(1.0), s))])
        assert split == (1.0, s, None)

    def test_not_a_state(self):
        for call in (lambda: evaluate(3, IDENTITY), lambda: channel_T(0.5, 3),
                     lambda: averaged_T(Gaussian(1.0), 3),
                     lambda: yosida_hewitt_split([(1.0, 3)])):
            with pytest.raises(TypeError, match="^not a state: 3$"):
                call()

    def test_witness_of_a_non_state(self):
        with pytest.raises(TypeError) as err:
            normality_witness(42, [[0.0]])
        assert str(err.value) == "not a state: 42"



# ---------------------------------------------------------------------------
# The Monte Carlo layer against plain expressions of the same values


def plain_at(f, ys):
    """Multiplier values as one chain of numpy temporaries, each step a new array."""
    vals = cmul(f.c, np.exp(1j * f.a * ys)) if f.a else np.full(ys.shape, f.c)
    return np.where((f.lo <= ys) & (ys <= f.hi), vals, 0j)


def plain_mc(d, f, x, n, gen):
    """(value, stderr) of the mc branch of expect_function, written out."""
    vals = plain_at(f, d.sample(gen, n) - x)
    mean = complex(vals.mean())
    var = float(np.mean(np.abs(vals - mean) ** 2))
    return mean, math.sqrt(var / n)


def plain_profile(base, v, xs):
    """g(x) = <T_x base, P_v> with Python abs(z) ** 2 and the full m x n overlaps."""
    if isinstance(base, MixedState):
        return sum(w * plain_profile(st, v, xs) for w, st in base.components)
    if isinstance(base, PureState):
        ov = shift_overlaps(base.vector, v, xs)
        hit = np.flatnonzero(ov)
        g = np.zeros(len(ov))
        g[hit] = [abs(z) ** 2 for z in ov[hit].tolist()]
        return g
    xs, back = np.unique(xs, return_inverse=True)
    h = np.array([shift_overlaps(unit_atom(p), v, xs) for p in base.support])
    hit = np.flatnonzero(h.any(axis=0))
    hh = h[:, hit]
    g = np.zeros(len(xs))
    g[hit] = np.sum(hh.conj() * (base.matrix @ hh), axis=0).real
    return g[back]


def plain_projector(avg, v, method, mc_samples=0, gen=None):
    """projector_value with the profile above and Python running sums."""
    total = 0.0
    if method == "mc":
        g = plain_profile(avg.base, v, avg.smoothing.sample(gen, mc_samples))
        for val in g[g != 0].tolist():
            total += val
        return total / mc_samples
    atoms = avg.smoothing.lebesgue_split()[0]
    g = plain_profile(avg.base, v, np.array([loc for loc, _ in atoms], dtype=float))
    for (_, pr), val in zip(atoms, g.tolist()):
        total += pr * val
    return total


def plain_evaluate(avg, A, n, gen):
    """(value, stderr) of averaged evaluate under mc, written out on one array of n draws."""
    xs = avg.smoothing.sample(gen, n)
    g = np.zeros(n, dtype=complex)
    for c, f, r, q in channels._hits(avg.base, A):
        for w, x in zip((c * r).tolist(), q.tolist()):
            vals = plain_at(f, xs - x)
            vals *= w
            g += vals
    mean = complex(g.mean())
    var = float(np.mean(np.abs(g - mean) ** 2))
    return mean, math.sqrt(var / n)


SIX_LAWS = [Gaussian(0.7), Cauchy(1.3), Uniform(-0.5, 2.0), Rademacher(), PointMass(0.25),
            MIXTURE]
SIX_IDS = ["gaussian", "cauchy", "uniform", "rademacher", "point", "mixture"]


def hexes(*xs):
    return [h for x in xs for h in (complex(x).real.hex(), complex(x).imag.hex())]


class TestMonteCarloBits:
    @pytest.mark.parametrize("d", SIX_LAWS, ids=SIX_IDS)
    def test_expect_function_mc(self, d):
        fs = [wave(1.3), wave(-0.4).shifted(0.7), indicator(-1.0, 0.5), constant(0.5j),
              wave(1.1) * indicator(-2.0, 1.0), Multiplier(2.0), Multiplier(-0.5, 1.5)]
        for j, f in enumerate(fs):
            for n in (1, 2, 1_000, 16_384, 100_000):
                for x in (0.0, -0.3):
                    est = expect_function(d, f, x, "mc", mc_samples=n,
                                          gen=SeededRng(61).stream(j))
                    mean, stderr = plain_mc(d, f, x, n, SeededRng(61).stream(j))
                    assert hexes(est.value, est.stderr) == hexes(mean, stderr)
                    assert est.samples == n

    @pytest.mark.parametrize("d", SIX_LAWS, ids=SIX_IDS)
    def test_projector_value(self, d):
        gen = np.random.default_rng(62)
        grid = np.arange(-6, 7) / 4.0

        def unit(k):
            v = make_vector(zip(gen.choice(grid, k, replace=False),
                                gen.normal(size=k) + 1j * gen.normal(size=k)))
            return (1.0 / norm(v)) * v

        positive = 0
        for _ in range(4):
            u, w, v = unit(4), unit(2), unit(3)
            m = int(gen.integers(1, 9))
            a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
            rho = a @ a.conj().T
            normal = NormalState(tuple(gen.choice(grid, m, replace=False).tolist()),
                                 rho / np.trace(rho).real)
            mixed = MixedState(((0.3, PureState(u)), (0.7, PureState(w))))
            for base in (PureState(u), mixed, normal):
                avg = averaged_T(d, base)
                value = projector_value(avg, v)
                assert value.hex() == plain_projector(avg, v, "analytic").hex()
                positive += value > 0.0
                for n in (1, 2_000):
                    got = projector_value(avg, v, "mc", mc_samples=n, gen=SeededRng(63).stream(0))
                    want = plain_projector(avg, v, "mc", n, SeededRng(63).stream(0))
                    assert got.hex() == want.hex()
        assert positive > 0 if d.lebesgue_split()[0] else positive == 0

    def test_projector_value_draws_one_atom(self):
        # both atoms of the law land the base on v, but n = 1 draws one: a
        # normal base's profile must then be taken at that atom alone, as the
        # draw-by-draw code took it
        gen = np.random.default_rng(66)
        grid = np.arange(-12, 13) / 4.0
        v = make_vector([(0.0, 0.6), (2.0, 0.8j)])
        for m in range(2, 12):
            others = [p for p in gen.choice(grid, m + 1, replace=False).tolist() if p != 1.0]
            a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
            rho = a @ a.conj().T
            avg = averaged_T(Rademacher(), NormalState(tuple([1.0] + others[:m - 1]),
                                                       rho / np.trace(rho).real))
            for n, stream in ((1, 0), (1, 1), (2, 2), (3, 3)):
                got = projector_value(avg, v, "mc", mc_samples=n, gen=SeededRng(67).stream(stream))
                want = plain_projector(avg, v, "mc", n, SeededRng(67).stream(stream))
                assert got.hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=4),
           st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    @example(ps=[0.70000001, 2.5], qs=[0.7, 1e-300], seed=0)
    @example(ps=[1.0, -0.0], qs=[0.0, 5e-324], seed=1)
    def test_landing_keeps_every_shift_that_lands(self, ps, qs, seed):
        p, q = np.array(ps), np.unique(qs)
        c = np.subtract.outer(p, q).ravel()
        # each p_k - q_j and its float neighbours up to 8 apart, among uniform draws
        near, up, down = [c], c, c
        for _ in range(8):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            near += [up, down]
        gen = np.random.default_rng(seed)
        xs = np.concatenate(near + [gen.uniform(-2e3, 2e3, 100)])
        gen.shuffle(xs)
        with np.errstate(over="ignore"):
            lands = np.isin(np.subtract.outer(p, xs), q).any(axis=0)
        at = channels._landing(p, q, xs)
        assert np.all(np.diff(at) > 0)
        assert set(np.flatnonzero(lands).tolist()) <= set(at.tolist())

    def test_profile_on_shifts_that_land_by_rounding(self):
        # atoms a little off those of v, so that many float neighbours of
        # p - q land p on q: the landed profile keeps the bits of the full
        # m x n one
        gen = np.random.default_rng(68)
        v = make_vector([(0.1, 0.6), (0.7, 0.8j)])
        near = np.concatenate([v.freqs + 1e-9 * gen.normal(size=2), gen.uniform(-3, 3, 3)])
        u = make_vector(zip(near, gen.normal(size=5) + 1j * gen.normal(size=5)))
        u = (1.0 / norm(u)) * u
        a = gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5))
        rho = a @ a.conj().T
        normal = NormalState(tuple(near[::-1].tolist()), rho / np.trace(rho).real)
        mixed = MixedState(((0.4, PureState(u)), (0.6, PureState(unit_atom(0.7 - 1e-9)))))
        off_grid = 0
        for base in (PureState(u), normal, mixed):
            c = np.subtract.outer(np.append(near, 0.7 - 1e-9), v.freqs).ravel()
            xs = np.concatenate([c + k * np.spacing(c) for k in range(-40, 41)]
                                + [gen.normal(size=1000)])
            gen.shuffle(xs)
            at = channels._landing(np.concatenate(list(channels._atom_sets(base))), v.freqs, xs)
            got = channels._scattered_profile(base, v, xs, at)
            assert got.tobytes() == plain_profile(base, v, xs).tobytes()
            off_grid += np.count_nonzero((got != 0) & ~np.isin(xs, c))
        assert off_grid > 100
        # the draws that land nothing are not candidates
        assert channels._landing(near, v.freqs, gen.normal(size=1000)).size == 0

    @pytest.mark.parametrize("base, h", [
        (PureState(make_vector([(-1e308, 0.6), (1e308, 0.8)])), -1e308),
        (NormalState((1e308, 0.0, -1e308), np.eye(3) / 3), -1e308),
        (NormalState((-1e308, 0.0, 1e308), np.eye(3) / 3), 1e308),
        (MixedState(((0.5, PureState(unit_atom(-1e308))), (0.5, PureState(unit_atom(1e308))))),
         1e308),
    ], ids=["pure", "normal", "normal-reversed", "mixed"])
    def test_profile_checks_every_draw(self, base, h):
        # draws that land nothing still fail as shift_overlaps fails on them:
        # a non-finite draw first, then the first atom set, in the base's
        # order, that a draw moves out of the float range
        v = unit_atom(1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^non-finite shift$"):
            projector_value(averaged_T(Cauchy(1e308), base), v, "mc", mc_samples=100,
                            gen=SeededRng(1).stream(0))
        law = FiniteMixture(((0.4, Gaussian(1.0)), (0.3, PointMass(1e308)),
                             (0.3, PointMass(-1e308))))
        with pytest.raises(ValueError, match=re.escape(
                f"shift {h!r} moves an atom of the vector out of the float range")):
            projector_value(averaged_T(law, base), v, "mc", mc_samples=100,
                            gen=SeededRng(1).stream(0))

    @pytest.mark.parametrize("d", [Gaussian(1.2), Cauchy(1.2), Uniform(-1.2, 1.2), MIXTURE],
                             ids=["gaussian", "cauchy", "uniform", "mixture"])
    def test_overlaps_only_where_draws_land(self, d, monkeypatch):
        # on plain draws the profile is taken only at the distinct draws that
        # _landing keeps, and not at all when none is kept
        kept, calls = [], []
        keep, profile = channels._landing, channels._projector_profile

        def landing(p, q, xs):
            at = keep(p, q, xs)
            kept.append(len(np.unique(xs[at])))
            return at

        def watched(base, v, xs):
            calls.append(len(xs))
            return profile(base, v, xs)

        monkeypatch.setattr(channels, "_landing", landing)
        monkeypatch.setattr(channels, "_projector_profile", watched)
        grid = np.arange(4) / 2.0
        u = make_vector(zip(grid, [0.6, 0.48j, 0.36, 0.52]))
        bases = [PureState((1.0 / norm(u)) * u), NormalState(tuple(grid.tolist()), np.eye(4) / 4),
                 MixedState(((0.5, PureState(unit_atom(0.0))), (0.5, PureState(unit_atom(1.5)))))]
        v = make_vector([(-1.0, 0.6), (1.0, 0.8)])
        for base in bases:
            del kept[:], calls[:]
            value = projector_value(averaged_T(d, base), v, "mc", mc_samples=10_000,
                                    gen=SeededRng(69).stream(0))
            assert len(kept) == 1
            assert (value > 0.0) == (d is MIXTURE)
            assert set(calls) == ({kept[0]} if kept[0] else set())

    @pytest.mark.parametrize("d", [Rademacher(), PointMass(0.25), PointMass(-0.0), MIXTURE,
                                   FiniteMixture(((0.5, Rademacher()), (0.5, PointMass(0.5))))],
                             ids=["rademacher", "point", "point-0", "mixture", "discrete-mixture"])
    def test_averaged_evaluate_mc(self, d):
        gen = np.random.default_rng(64)
        grid = np.arange(-6, 7) / 4.0

        def unit(k):
            v = make_vector(zip(gen.choice(grid, k, replace=False),
                                gen.normal(size=k) + 1j * gen.normal(size=k)))
            return (1.0 / norm(v)) * v

        a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        rho = a @ a.conj().T
        bases = [PureState(unit(4)),
                 MixedState(((0.3, PureState(unit(3))), (0.7, PureState(unit(2))))),
                 NormalState(tuple(gen.choice(grid, 4, replace=False).tolist()),
                             rho / np.trace(rho).real)]
        probes = [AlgebraElement.modulation(1.3),
                  AlgebraElement.of([(0.6 - 0.2j, wave(-0.4).shifted(0.7), 0.5),
                                     (1.0, indicator(-1.0, 0.5), 0.0)]),
                  AlgebraElement.of([(2.0, wave(1.1) * indicator(-2.0, 1.0), -0.75),
                                     (-0.5j, ONE, 0.25)])]
        pairs = 0
        for base in bases:
            for A in probes:
                pairs += sum(len(q) for _, _, _, q in channels._hits(base, A))
                for n in (1, 2, 1_000, 16_384, 20_000):
                    est = evaluate(averaged_T(d, base), A, "mc", mc_samples=n,
                                   gen=SeededRng(65).stream(n))
                    mean, stderr = plain_evaluate(averaged_T(d, base), A, n,
                                                  SeededRng(65).stream(n))
                    assert hexes(est.value, est.stderr) == hexes(mean, stderr)
                    assert est.samples == n
        assert pairs > 2 * len(bases) * len(probes)


ATOM_MIXTURES = [
    FiniteMixture(((0.5, PointMass(-1.0)), (0.5, PointMass(2.0)))),
    FiniteMixture(((0.3, Rademacher()),
                   (0.7, FiniteMixture(((0.5, PointMass(0.5)), (0.5, Rademacher())))))),
    FiniteMixture(((0.5, PointMass(-0.0)), (0.25, PointMass(0.0)), (0.25, Rademacher()))),
    FiniteMixture(((0.6, Rademacher()), (0.0, Gaussian(1.0)), (0.4, PointMass(0.25)))),
    FiniteMixture(((0.1, PointMass(1.0)), (0.2, PointMass(-1.0)), (0.7, Rademacher()))),
]
ATOM_MIXTURE_IDS = ["two-points", "nested", "signed-zeros", "weight-0-gaussian", "repeats"]


class TestAtomMixtures:
    """Mixtures with no continuous part draw atom indices; every mc path keeps the bits of
    the draw-by-draw code."""

    @staticmethod
    def bases(seed):
        gen = np.random.default_rng(seed)
        grid = np.arange(-8, 9) / 4.0

        def unit(k):
            v = make_vector(zip(gen.choice(grid, k, replace=False),
                                gen.normal(size=k) + 1j * gen.normal(size=k)))
            return (1.0 / norm(v)) * v

        m = int(gen.integers(2, 9))
        a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
        rho = a @ a.conj().T
        normal = NormalState(tuple(gen.choice(grid, m, replace=False).tolist()),
                             rho / np.trace(rho).real)
        mixed = MixedState(((0.3, PureState(unit(3))), (0.7, PureState(unit(2)))))
        return [PureState(unit(4)), normal, mixed], unit(3)

    @pytest.mark.parametrize("d", ATOM_MIXTURES, ids=ATOM_MIXTURE_IDS)
    def test_expect_function_mc(self, d):
        fs = [wave(1.3), wave(-0.4).shifted(0.7), indicator(-1.0, 0.5), constant(0.5j),
              Multiplier(-0.5, 1.5)]
        for j, f in enumerate(fs):
            for n in (1, 2, 7, 1_000, 16_384, 100_000):
                for x in (0.0, -0.3):
                    est = expect_function(d, f, x, "mc", mc_samples=n,
                                          gen=SeededRng(73).stream(j))
                    mean, stderr = plain_mc(d, f, x, n, SeededRng(73).stream(j))
                    assert hexes(est.value, est.stderr) == hexes(mean, stderr)
                    assert est.samples == n

    @pytest.mark.parametrize("d", ATOM_MIXTURES, ids=ATOM_MIXTURE_IDS)
    def test_averaged_evaluate_mc(self, d):
        probes = [AlgebraElement.modulation(1.3),
                  AlgebraElement.of([(0.6 - 0.2j, wave(-0.4).shifted(0.7), 0.5),
                                     (1.0, indicator(-1.0, 0.5), 0.0)])]
        for seed in range(2):
            for base in self.bases(74 + seed)[0]:
                for A in probes:
                    for n in (1, 2, 1_000, 16_384):
                        est = evaluate(averaged_T(d, base), A, "mc", mc_samples=n,
                                       gen=SeededRng(75).stream(n))
                        mean, stderr = plain_evaluate(averaged_T(d, base), A, n,
                                                      SeededRng(75).stream(n))
                        assert hexes(est.value, est.stderr) == hexes(mean, stderr)

    @pytest.mark.parametrize("d", ATOM_MIXTURES, ids=ATOM_MIXTURE_IDS)
    def test_projector_value_mc(self, d):
        positive = 0
        for seed in range(4):
            bases, v = self.bases(76 + seed)
            for base in bases:
                avg = averaged_T(d, base)
                for n in (1, 2, 7, 2_000):
                    got = projector_value(avg, v, "mc", mc_samples=n, gen=SeededRng(77).stream(n))
                    want = plain_projector(avg, v, "mc", n, SeededRng(77).stream(n))
                    assert got.hex() == want.hex()
                    positive += got > 0.0
        assert positive > 0

    def test_projector_at_repeated_locations(self):
        # the table repeats locations out of order, and many of them land the
        # normal base on v: the profile is taken once per distinct drawn
        # location, ascending, as on plain draws; a matrix product over the
        # table's own columns rounds differently in some of these cases
        law = FiniteMixture(tuple((0.125, PointMass(a))
                                  for a in (0.75, -0.5, 0.25, 1.0, -0.5, 0.75, 1.0))
                            + ((0.125, Rademacher()),))
        assert law.draw(SeededRng(78).stream(0), 1_000)[0].tolist() == [
            0.75, -0.5, 0.25, 1.0, -0.5, 0.75, 1.0, -1.0, 1.0]
        gen = np.random.default_rng(79)
        grid = np.arange(-24, 25) / 4.0
        for m in range(2, 34, 3):
            a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
            rho = a @ a.conj().T
            avg = averaged_T(law, NormalState(tuple(gen.choice(grid, m, replace=False).tolist()),
                                              rho / np.trace(rho).real))
            v = make_vector(zip(gen.choice(grid, 12, replace=False),
                                gen.normal(size=12) + 1j * gen.normal(size=12)))
            v = (1.0 / norm(v)) * v
            # few draws, so that one ulp of a profile value shows in the mean
            for stream in range(16):
                n = 1_000 if stream == 15 else 1 + stream % 3
                got = projector_value(avg, v, "mc", mc_samples=n,
                                      gen=SeededRng(78).stream(stream))
                want = plain_projector(avg, v, "mc", n, SeededRng(78).stream(stream))
                assert got.hex() == want.hex()


PROJECTOR_LAWS = SIX_LAWS[:5] + [PointMass(0.0), PointMass(-0.0)] + ATOM_MIXTURES + [
    MIXTURE, FiniteMixture(((0.3, PointMass(0.5)), (0.7, Uniform(-1.0, 1.0)))),
    Cauchy(1e308), FiniteMixture(((0.4, Gaussian(1.0)), (0.3, PointMass(1e308)),
                                  (0.3, PointMass(-1e308)))),
    FiniteMixture(((0.5, Rademacher()), (0.5, PointMass(-1e308))))]


class TestProjectorMonteCarlo:
    """Both law kinds take the profile through one scatter, and the profile's
    check is the only one a draw meets."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PROJECTOR_LAWS),
           st.sampled_from(["pure", "normal", "normal-reversed", "mixed", "averaged-mixture"]),
           st.sampled_from([(), (1e308,), (-1e308,), (-1e308, 1e308)]),
           st.sampled_from([1, 2, 7, 2_000]), st.integers(0, 2**32 - 1))
    def test_matches_the_plain_projector(self, d, kind, far, n, seed):
        # values hex-equal to the written-out projector, and errors equal to
        # the one its profile raises over all of the draws
        gen = np.random.default_rng(seed)
        grid = np.arange(-8, 9) / 4.0

        def unit(k, extra=()):
            locs = gen.choice(grid, k, replace=False).tolist() + list(extra)
            u = make_vector(zip(locs, gen.normal(size=len(locs)) + 1j * gen.normal(size=len(locs))))
            return (1.0 / norm(u)) * u

        m = int(gen.integers(1, 6))
        support = gen.choice(grid, m, replace=False).tolist() + list(far)
        a = gen.normal(size=(len(support),) * 2) + 1j * gen.normal(size=(len(support),) * 2)
        rho = a @ a.conj().T
        normal = NormalState(tuple(support[::-1] if kind == "normal-reversed" else support),
                             rho / np.trace(rho).real)
        pure = PureState(unit(int(gen.integers(1, 5)), far))
        base = {"pure": pure, "normal": normal, "normal-reversed": normal,
                "mixed": MixedState(((0.3, pure), (0.7, normal))), "averaged-mixture": None}[kind]
        parts = ([(0.4, averaged_T(d, pure)), (0.6, averaged_T(d, normal))] if base is None
                 else [(1.0, averaged_T(d, base))])
        avg = parts[0][1] if base is not None else MixedState(tuple(parts))
        v = unit(int(gen.integers(1, 4)))
        for method in ("analytic", "mc"):
            with np.errstate(over="ignore"):
                try:
                    stream = SeededRng(seed).stream(0)
                    want = 0.0
                    for w, st_ in parts:
                        want += w * plain_projector(st_, v, method, n, stream)
                except ValueError as err:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                        projector_value(avg, v, method, n, SeededRng(seed).stream(0))
                else:
                    got = projector_value(avg, v, method, n, SeededRng(seed).stream(0))
                    assert got.hex() == want.hex()

    @pytest.mark.parametrize("d", [MIXTURE, FiniteMixture(((0.3, PointMass(0.5)),
                                                           (0.7, Uniform(-1.0, 1.0)))),
                                   Rademacher()], ids=["mixture", "uniform-mixture", "rademacher"])
    def test_each_kept_draw_is_checked_once(self, d, monkeypatch):
        # a kept draw reaches check_draws once per pure or normal state in
        # the base, through the profile's own check, and no draw before it
        seen = []

        def spy(check):
            def checked(xs, *fs):
                seen.extend(xs.tolist())
                return check(xs, *fs)
            return checked

        monkeypatch.setattr(channels, "check_draws", spy(channels.check_draws))
        monkeypatch.setattr(algebra, "check_draws", spy(algebra.check_draws))
        grid = np.arange(4) / 2.0
        u = make_vector(zip(grid, [0.6, 0.48j, 0.36, 0.52]))
        u = PureState((1.0 / norm(u)) * u)
        normal = NormalState(tuple(grid.tolist()), np.eye(4) / 4)
        v = make_vector([(-1.0, 0.6), (1.0, 0.8)])
        for base, leaves in ((u, 1), (normal, 1), (MixedState(((0.5, u), (0.5, normal))), 2)):
            del seen[:]
            value = projector_value(averaged_T(d, base), v, "mc", mc_samples=10_000,
                                    gen=SeededRng(70).stream(0))
            assert value > 0.0 and seen
            assert set(Counter(seen).values()) == {leaves}


EDGE_X = [1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
          -2.2250738585072014e-308, 0.0, -0.0]
edge_x = st.sampled_from(EDGE_X) | st.floats()
EDGE_MULTIPLIERS = [wave(1.3), wave(10.0), indicator(-1.0, 0.5), constant(0.5j),
                    wave(1.1) * indicator(-2.0, 1.0), Multiplier(1.0, 0.0, 0.0, math.inf),
                    Multiplier(1.0, 2.0, 0.0, math.inf), Multiplier(-0.5, 1.5)]
EDGE_PROBES = [AlgebraElement.shift(0.5), AlgebraElement.modulation(1.3),
               AlgebraElement.modulation(10.0), AlgebraElement.mult(indicator(-1.0, 0.5)),
               compose(AlgebraElement.shift(0.5), AlgebraElement.modulation(10.0))]


def finite_or_named(call, x):
    """call() returns finite numbers, or raises ValueError or QuadratureError naming x.

    numpy raises on every floating-point error but underflow, which is the
    correctly rounded result of arithmetic on subnormal inputs.
    """
    try:
        with np.errstate(all="raise", under="ignore"):
            out = call()
    except (ValueError, QuadratureError) as err:
        assert repr(x) in str(err)
        return
    values = [out.value, out.stderr] if isinstance(out, McEstimate) else [out]
    assert all(math.isfinite(abs(v)) for v in values), (x, out)


class TestEdgeInputs:
    """Frequencies near the float range, infinities, NaN, subnormals and -0.0."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SIX_LAWS), st.sampled_from(EDGE_MULTIPLIERS), edge_x)
    def test_expect_function(self, d, f, x):
        finite_or_named(lambda: expect_function(d, f, x), x)
        finite_or_named(lambda: expect_function(d, f, x, "mc", mc_samples=500,
                                                gen=SeededRng(71).stream(0)), x)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SIX_LAWS), st.sampled_from(EDGE_PROBES), edge_x)
    def test_averaged_evaluate_on_an_edge_atom(self, d, A, x):
        def averaged():
            u = make_vector([(0.0, 0.6), (x, 0.8j)])
            return averaged_T(d, PureState((1.0 / norm(u)) * u))

        finite_or_named(lambda: evaluate(averaged(), A), x)
        finite_or_named(lambda: evaluate(averaged(), A, "mc", mc_samples=500,
                                         gen=SeededRng(72).stream(0)), x)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SIX_LAWS), edge_x)
    def test_averaged_evaluate_of_an_edge_operator(self, d, x):
        avg = averaged_T(d, PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)])))
        for A in (lambda: AlgebraElement.shift(x), lambda: AlgebraElement.modulation(x),
                  lambda: compose(AlgebraElement.shift(x), AlgebraElement.modulation(1.3))):
            finite_or_named(lambda: evaluate(avg, A()), x)
            finite_or_named(lambda: evaluate(avg, A(), "mc", mc_samples=500,
                                             gen=SeededRng(73).stream(0)), x)

    def test_monte_carlo_overflow_names_x(self):
        # these returned McEstimate(nan+nanj, nan, ...) and 0j
        for x in (1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"x = {x!r}")):
                expect_function(Gaussian(1.0), wave(10.0), x, "mc", mc_samples=100,
                                gen=SeededRng(74).stream(0))
        for x in (math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"x = {x!r}")):
                expect_function(Gaussian(1.0), indicator(-1.0, 1.0), x)


class TestPairPhaseOverflow:
    """evaluate of a pure, normal or mixed state names a phase a q past the float
    range at a pair frequency q, with check_phase's message."""

    PURE = PureState(unit_atom(1e308))

    @pytest.mark.parametrize("s", [
        PURE,
        NormalState((0.0, 1e308), np.array([[0.5, 0.0], [0.0, 0.5]])),
        MixedState(((0.5, PURE), (0.5, PureState(unit_atom(0.0))))),
    ], ids=["pure", "normal", "mixed"])
    def test_named(self, s):
        with pytest.raises(ValueError) as err:
            evaluate(s, AlgebraElement.mult(wave(10.0)))
        assert str(err.value) == "the phase 10.0 * 1e+308 overflows the float range"

    @pytest.mark.parametrize("s", [
        PureState(make_vector([(0.0, 0.6), (1e308, 0.8)])),
        NormalState((0.0, 1e308), np.array([[0.5, 0.0], [0.0, 0.5]])),
        MixedState(((0.5, PURE), (0.5, PureState(make_vector([(-1.0, 0.6), (1.0, 0.8j)]))))),
    ], ids=["pure", "normal", "mixed"])
    def test_phases_outside_the_interval_pass(self, s):
        # the atom at 1e308 lies outside [-1, 1]: the scalar rule gives 0j there
        f = wave(10.0) * indicator(-1.0, 1.0)
        A = AlgebraElement.of([(1.5, f, 0.0), (-0.5j, wave(0.5), 0.0)])

        def ref(st):
            if isinstance(st, MixedState):
                return sum(w * ref(part) for w, part in st.components)
            if isinstance(st, PureState):
                atoms = [(a.p, a.c.conjugate() * a.c) for a in st.vector]
            else:
                atoms = [(p, complex(st.matrix[k, k])) for k, p in enumerate(st.support)]
            return sum(c * sum(r * g(p) for p, r in atoms) for c, g, _ in A.terms)
        assert abs(evaluate(s, A) - ref(s)) <= 1e-15

    def test_a_frequency_no_pair_reaches_passes(self):
        s = PureState(make_vector([(0.0, 0.6), (1e308, 0.8)]))
        assert evaluate(s, AlgebraElement.of([(1.0, wave(10.0), 1e300)])) == 0j
        value = evaluate(s, AlgebraElement.mult(wave(1.0)))
        assert abs(value - (0.36 + 0.64 * cmath.exp(1e308j))) < 1e-15


class TestDrawsPastTheFloatRange:
    """Cauchy(1e308) draws past the float range as +-inf, with no RuntimeWarning; each
    Monte Carlo path then names the failure, or returns the exact limit."""

    LAW = Cauchy(1e308)
    BASE = PureState(unit_atom(0.0))

    def mc(self, call):
        return call(method="mc", mc_samples=100, gen=SeededRng(1).stream(0))

    def test_expect_function_of_an_indicator(self):
        f = indicator(-1.0, 1.0)
        est = self.mc(lambda **kw: expect_function(self.LAW, f, 0.0, **kw))
        assert est == McEstimate(0j, 0.0, 100)

    def test_expect_function_of_a_wave(self):
        f = wave(1.0)
        with pytest.raises(ValueError) as err:
            self.mc(lambda **kw: expect_function(self.LAW, f, 0.0, **kw))
        assert str(err.value) == (f"E f(xi - x) for f = {f!r} under {self.LAW!r} is not "
                                  "finite at x = 0.0: a phase a (xi - x) overflows")

    def test_evaluate_of_an_indicator(self):
        A = AlgebraElement.mult(indicator(-1.0, 1.0))
        est = self.mc(lambda **kw: evaluate(averaged_T(self.LAW, self.BASE), A, **kw))
        assert est == McEstimate(0j, 0.0, 100)

    def test_evaluate_of_a_wave(self):
        A = AlgebraElement.mult(wave(1.0))
        with pytest.raises(ValueError) as err:
            self.mc(lambda **kw: evaluate(averaged_T(self.LAW, self.BASE), A, **kw))
        assert str(err.value) == (f"<T_xi s, A> for A = {A!r} under {self.LAW!r} is not "
                                  "finite: a phase a (xi - q) overflows at a pair frequency "
                                  f"q of {self.BASE!r}")

    def test_projector_value(self):
        with pytest.raises(ValueError) as err:
            self.mc(lambda **kw: projector_value(averaged_T(self.LAW, self.BASE),
                                                 unit_atom(0.0), **kw))
        assert str(err.value) == "non-finite shift"


class TestKernelPastTheFloatRange:
    """chi(p_j - p_k) where the difference overflows, with no RuntimeWarning."""

    @pytest.mark.parametrize("d", [Gaussian(1.0), Cauchy(0.5)], ids=["gaussian", "cauchy"])
    def test_closed_form_limit(self, d):
        K = dephasing_kernel(d, (-1e308, 1e308))
        assert np.array_equal(K, np.eye(2)) and K.dtype == complex

    @pytest.mark.parametrize("d", [Uniform(-1.0, 2.0), PointMass(0.5), Rademacher()],
                             ids=["uniform", "pointmass", "rademacher"])
    def test_names_the_frequencies(self, d):
        with pytest.raises(ValueError) as err:
            dephasing_kernel(d, (-1e308, 1e308))
        assert str(err.value) == (f"chi of {d!r} is not finite on the support: the "
                                  "difference -1e+308 - 1e+308 overflows")


# the laws of the state-eval benchmark workload
STATE_EVAL_LAWS = [Gaussian(1.3), Cauchy(0.8), Uniform(-1.5, 1.5), Rademacher(),
                   FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(0.9))))]


class TestChannelOutputs:
    """channel_T, averaged_Phi (of a PointMass too) and semigroup_Phi skip the PSD check."""

    @pytest.mark.parametrize("m", [8, 64, 200])
    def test_outputs_are_psd(self, m):
        gen = np.random.default_rng(64 + m)
        for rank in (1, 3, m):
            a = gen.normal(size=(m, rank)) + 1j * gen.normal(size=(m, rank))
            rho = a @ a.conj().T
            support = np.sort(gen.choice(np.arange(-m, m + 1), m, replace=False) / 4.0)
            s = NormalState(tuple(support.tolist()), rho / np.trace(rho).real)
            t = float(gen.uniform(0.05, 2.0))
            outs = [channel_T(0.75, s), averaged_Phi(PointMass(1.3), s),
                    semigroup_Phi(ConvolutionFamily("gaussian"), t, s),
                    semigroup_Phi(ConvolutionFamily("cauchy"), t, s)]
            outs += [averaged_Phi(d, s) for d in STATE_EVAL_LAWS]
            for out in outs:
                assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_no_eigvalsh(self, monkeypatch):
        s = random_density(np.random.default_rng(65), 200)

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} on a channel output")
            return call

        for name in ("eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse(name))
        channel_T(0.5, s)
        averaged_Phi(PointMass(0.5), s)
        semigroup_Phi(ConvolutionFamily("cauchy"), 0.5, s)
        for d in STATE_EVAL_LAWS:
            averaged_Phi(d, s)
        normality_witness(averaged_T(Rademacher(), s), [s.support])
        # a state built by hand is still checked, by a Cholesky factorization
        with pytest.raises(AssertionError, match="cholesky"):
            NormalState(s.support, s.matrix)

    @pytest.mark.parametrize("m", [2, 8, 64, 200])
    def test_psd_boundary(self, m):
        # a rotated diagonal: rejected with smallest eigenvalue -2e-10, accepted
        # with -0.5e-10, on either side of the -1e-10 tolerance
        gen = np.random.default_rng(70 + m)
        q, _ = np.linalg.qr(gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m)))
        support = tuple(np.arange(m) / 2.0)
        for low, accepted in ((-2e-10, False), (-0.5e-10, True)):
            d = np.full(m, (1.0 - low) / (m - 1))
            d[gen.integers(m)] = low
            rho = (q * d) @ q.conj().T
            rho = (rho + rho.conj().T) / 2.0
            assert abs(np.linalg.eigvalsh(rho).min() - low) < 1e-13
            if accepted:
                NormalState(support, rho)
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    NormalState(support, rho)

    def test_other_checks_stay(self):
        # 0.0 - 1.0 and 1e-300 - 1.0 are both -1.0
        s = NormalState((0.0, 1e-300), np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="distinct"):
            channel_T(1.0, s)
        with pytest.raises(ValueError, match="finite"):
            channel_T(-math.inf, PAIR_DENSITY)
        with pytest.raises(ValueError, match="positive semidefinite"):
            NormalState((0.0, 1.0), np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_shift_that_breaks_the_support_is_named(self):
        # 1e308 + 1e308 overflows; 0.0 - 1.0 and 1e-300 - 1.0 are both -1.0
        top = NormalState((1e308, 0.0), np.eye(2) / 2.0)
        with pytest.raises(ValueError, match=r"shift -1e\+308 .*must be finite"):
            channel_T(-1e308, top)
        s = NormalState((0.0, 1e-300), np.eye(2) / 2.0)
        with pytest.raises(ValueError, match=r"shift 1\.0 .*must be distinct"):
            channel_T(1.0, s)
        # a Rademacher average shifts by -1.0 first, onto 1.0 from both atoms: that piece
        # has no state, so the split raises, while the witness weighs the base's diagonal
        avg = averaged_T(Rademacher(), s)
        with pytest.raises(ValueError, match=r"shift -1\.0 .*must be distinct"):
            yosida_hewitt_split([(1.0, avg)])
        assert normality_witness(avg, [[-1.0, 1.0]]) == 1.0
        assert normality_witness(avg, [[1.0]]) == 0.5


class TestMixtureLaws:
    """A law with both parts: the atoms sum exactly, the rest meets a cdf or a rule."""

    def test_indicator_is_atoms_plus_cdf(self):
        # Yosida & Hewitt (Trans. AMS 72, 1952): the discrete part sums, and only
        # the continuous part, of weight cw, meets the cdf
        lo, hi = -0.7, 1.2
        g = Gaussian(1.0)
        for x in (-1.5, -0.2, 0.0, 0.3, 0.9):
            want = sum(pr * (lo <= loc - x <= hi) for loc, pr in MIXTURE.lebesgue_split()[0])
            want += MIXTURE.lebesgue_split()[1] * (g.cdf(hi + x) - g.cdf(lo + x))
            assert abs(expect_function(MIXTURE, indicator(lo, hi), x) - want) <= 1e-15

    def test_averaged_indicator(self):
        u = make_vector([(0.0, 0.6), (0.5, 0.8j)])
        lo, hi = -0.4, 1.1
        avg = averaged_T(MIXTURE, PureState(u))
        got = evaluate(avg, AlgebraElement.mult(indicator(lo, hi)))
        g = Gaussian(1.0)
        want = 0.0
        for p, weight in ((0.0, 0.36), (0.5, 0.64)):
            e = sum(pr * (lo <= loc - p <= hi) for loc, pr in MIXTURE.lebesgue_split()[0])
            want += weight * (e + 0.5 * (g.cdf(hi + p) - g.cdf(lo + p)))
        assert abs(got - want) <= 1e-12

    def test_zero_weight_component_is_dropped(self):
        # an atom of probability 0 used to reach channel_T: the shift 1.0
        # merges the atoms at 1e16 and 1e16 + 2
        u = make_vector([(1e16, 0.6), (1e16 + 2.0, 0.8)])
        lone = FiniteMixture(((1.0, Gaussian(1.0)),))
        for zero in (PointMass(1.0), Rademacher(), Cauchy(1.0), PointMass(1e308)):
            law = FiniteMixture(((1.0, Gaussian(1.0)), (0.0, zero)))
            assert law.lebesgue_split()[0] == () and not law.lebesgue_split()[0]
            assert (law.mean, law.variance) == (lone.mean, lone.variance)
            assert law.chi(10.0) == lone.chi(10.0)
            for base in (PureState(u), PureState(make_vector([(0.0, 0.6), (0.5, 0.8j)]))):
                avg, ref = averaged_T(law, base), averaged_T(lone, base)
                assert normality_witness(avg, [[0.0], list(u.freqs)]) == 0.0
                assert projector_value(avg, base.vector) == projector_value(ref, base.vector)
                assert yosida_hewitt_split([(1.0, avg)])[0] == 0.0
                for A in (AlgebraElement.shift(0.5), AlgebraElement.mult(indicator(-0.4, 1.1)),
                          AlgebraElement.mult(wave(1.1) * indicator(-0.5, 1.5))):
                    assert evaluate(avg, A) == evaluate(ref, A)

    def test_continuous_part_takes_the_mixture_rule(self):
        law = FiniteMixture(((0.2, Rademacher()), (0.4, Gaussian(1.0)), (0.4, Cauchy(0.5))))
        f, x = wave(1.1) * indicator(-0.5, 1.5), 0.3
        want = sum(w * expect_function(d, f, x) for w, d in law.components)
        assert abs(expect_function(law, f, x) - want) <= 1e-12


# a state of each kind, and the functions that need a normal or an averaged one
KINDS = {"pure": uniform_pair(), "normal": PAIR_DENSITY,
         "mixed": MixedState(((0.5, uniform_pair()), (0.5, PAIR_DENSITY))),
         "averaged": averaged_T(Gaussian(1.0), uniform_pair())}
NEEDS_NORMAL = {"averaged_Phi": lambda s: averaged_Phi(Gaussian(1.0), s),
                "channel_Phi": lambda s: averaged_Phi(PointMass(0.5), s),
                "semigroup_Phi": lambda s: semigroup_Phi(ConvolutionFamily("cauchy"), 1.0, s)}
NEEDS_AVERAGED = {"projector_value": lambda s: projector_value(s, unit_atom(0.0)),
                  "projector_value-mc": lambda s: projector_value(
                      s, unit_atom(0.0), "mc", 10, SeededRng(1).stream(0))}
WRONG_KINDS = {f"{name}-{kind}": (call, KINDS[kind], need)
               for calls, need in ((NEEDS_NORMAL, "normal"), (NEEDS_AVERAGED, "averaged"))
               for name, call in calls.items() for kind in KINDS if kind != need}


@pytest.mark.parametrize("call,s,need", WRONG_KINDS.values(), ids=WRONG_KINDS.keys())
def test_wrong_state_kind_is_named(call, s, need):
    article = "an" if need == "averaged" else "a"
    with pytest.raises(TypeError, match=f"^not {article} {need} state: {re.escape(repr(s))}$"):
        call(s)


# the atoms of every Gram state lie on the grid (1/2) Z, so the shifts of the
# elements pair them
GRAM_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
GRAM_COEFFS = [1.0, -0.5, 0.3j, 0.7 - 0.2j, 2.0 + 1.5j]
GRAM_MULTIPLIERS = [ONE, wave(0.7), wave(-1.3), indicator(-0.5, 1.0), indicator(0.0, math.inf),
                    indicator(-math.inf, 0.5)]
GRAM_SHIFTS = [0.0, 0.5, -0.5, 1.0]
gram_terms = st.lists(st.tuples(st.sampled_from(GRAM_COEFFS), st.sampled_from(GRAM_MULTIPLIERS),
                                st.sampled_from(GRAM_SHIFTS)), min_size=1, max_size=3)


def gram_state(kind, seed):
    """A pure, normal or mixed state on four grid atoms, or the split of an
    average under an atom law, whose parts are all normal."""
    gen = np.random.default_rng(seed)
    support = tuple(np.sort(gen.choice(GRAM_GRID, 4, replace=False)).tolist())
    cs = gen.normal(size=4) + 1j * gen.normal(size=4)
    pure = PureState((1.0 / np.linalg.norm(cs)) * make_vector(list(zip(support, cs))))
    a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    rho = a @ a.conj().T
    normal = NormalState(support, rho / np.trace(rho).real)
    return {"pure": pure, "normal": normal,
            "mixed": MixedState(((0.3, pure), (0.7, normal))),
            "split-rademacher": split_state([(1.0, averaged_T(Rademacher(), pure))]),
            "split-point": split_state([(0.4, normal),
                                        (0.6, averaged_T(PointMass(0.5), normal))])}[kind]


def gram(s, elements):
    """G_jk = <s, A_j* A_k>: the Gram matrix of the A_k in the state's GNS space."""
    return np.array([[evaluate(s, compose(adjoint(Aj), Ak)) for Ak in elements]
                     for Aj in elements])


def assert_gram_is_psd(G, scale):
    """G is Hermitian and positive semidefinite, both within 1e-12 scale."""
    assert np.abs(G - G.conj().T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh((G + G.conj().T) / 2).min() >= -1e-12 * scale


class TestGram:
    """A state is positive: the Gram matrix of any elements under it is PSD."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["pure", "normal", "mixed", "split-rademacher", "split-point"]),
           st.integers(0, 2 ** 32 - 1), st.lists(gram_terms, min_size=1, max_size=3))
    def test_normal_kinds(self, kind, seed, terms):
        elements = [AlgebraElement.of(t) for t in terms]
        scale = sum(abs(c) ** 2 for t in terms for c, _, _ in t)
        assert_gram_is_psd(gram(gram_state(kind, seed), elements), scale)

    @pytest.mark.xfail(strict=True, reason="averaged evaluate takes E f(xi - q), but "
                       "<T_xi s, M_f> is E f(q - xi): it reflects the multiplier")
    @pytest.mark.parametrize("law", [PointMass(0.3), Gaussian(1.0), Rademacher()],
                             ids=["point", "gaussian", "rademacher"])
    def test_averaged(self, law):
        s = PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)]))
        elements = [AlgebraElement.shift(1.0), AlgebraElement.mult(wave(0.7))]
        assert_gram_is_psd(gram(averaged_T(law, s), elements), 2.0)


class TestNormalProfile:
    """A normal base's profile looks the amplitude of v up at each p_k - x,
    with the bits of ``plain_profile``, which forms each overlap
    h_k = (S_x 1_{p_k}, v) by one ``shift_overlaps`` call per support atom."""

    @pytest.mark.parametrize("d", [Rademacher(), PointMass(0.25), MIXTURE],
                             ids=["rademacher", "point", "mixture"])
    @pytest.mark.parametrize("m", [1, 8, 64, 200])
    def test_matches_the_overlaps(self, m, d):
        gen = np.random.default_rng(71 + m)
        grid = np.arange(-4 * m - 8, 4 * m + 9) / 4.0
        support = gen.choice(grid, m, replace=False)
        a = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
        rho = a @ a.conj().T
        base = NormalState(tuple(support.tolist()), rho / np.trace(rho).real)
        # v sits where the law's atoms, and a few other shifts, carry support atoms
        targets = np.unique(np.subtract.outer(support, [0.25, 1.0, -1.0, 0.5]))
        k = min(6, len(targets))
        v = make_vector(zip(gen.choice(targets, k, replace=False),
                            gen.normal(size=k) + 1j * gen.normal(size=k)))
        v = (1.0 / norm(v)) * v
        # distinct shifts, sorted as every caller passes them: each one that
        # lands a support atom on v, its float neighbours, and plain ones
        landing = np.subtract.outer(support, v.freqs).ravel()
        xs = np.unique(np.concatenate([landing, np.nextafter(landing, np.inf),
                                       gen.normal(size=50)]))
        got = channels._projector_profile(base, v, xs)
        assert got.tobytes() == plain_profile(base, v, xs).tobytes()
        assert np.count_nonzero(got) >= len(landing) // len(v)
        avg = averaged_T(d, base)
        atoms = np.array([loc for loc, _ in d.lebesgue_split()[0]])
        assert (channels._projector_profile(base, v, atoms).tobytes()
                == plain_profile(base, v, atoms).tobytes())
        value = projector_value(avg, v)
        assert value.hex() == plain_projector(avg, v, "analytic").hex() and value > 0.0
        for n in (1, 2_000):
            got = projector_value(avg, v, "mc", mc_samples=n, gen=SeededRng(72).stream(m))
            want = plain_projector(avg, v, "mc", n, SeededRng(72).stream(m))
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("support, xs", [
        ((0.0, 1e308), [0.5, -1e308, math.nan]),
        ((0.0, 1e308), [math.inf, 0.5]),
        ((1e308, 0.0, -1e308), [0.5, -1e308, 1e308]),
        ((-1e308, 0.0, 1e308), [0.5, -1e308, 1e308]),
    ], ids=["nan-first", "inf", "first-atom-up", "first-atom-down"])
    def test_fails_as_the_overlaps(self, support, xs):
        # a non-finite shift first, then the first support atom, in the
        # support's order, that a shift carries past the largest float
        base = NormalState(support, np.eye(len(support)) / len(support))
        xs = np.array(xs)
        with pytest.raises(ValueError) as want:
            plain_profile(base, unit_atom(1.0), xs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            channels._projector_profile(base, unit_atom(1.0), xs)
        assert str(want.value) == ("non-finite shift" if not np.isfinite(xs).all() else
                                   f"shift {-support[0]!r} moves an atom of the vector "
                                   "out of the float range")


# ---------------------------------------------------------------------------
# Convex combinations of every state kind are states


CLOSURE_LAWS = [Gaussian(1.0), Cauchy(0.5), Rademacher(), MIXTURE]
# every atom a shifted base lands on: the grid, moved by the laws' atoms 0 and +-1
COVER = sorted({g + loc for g in GRAM_GRID for loc in (-1.0, 0.0, 1.0)})


def closure_leaf(kind, law, seed):
    """A pure or normal state on three grid atoms, or its average under a law."""
    gen = np.random.default_rng(seed)
    support = tuple(np.sort(gen.choice(GRAM_GRID, 3, replace=False)).tolist())
    if kind.endswith("pure"):
        cs = gen.normal(size=3) + 1j * gen.normal(size=3)
        s = PureState((1.0 / np.linalg.norm(cs)) * make_vector(list(zip(support, cs))))
    else:
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        rho = a @ a.conj().T
        s = NormalState(support, rho / np.trace(rho).real)
    return averaged_T(law, s) if kind.startswith("averaged") else s


def closure_mixture(pairs):
    """The MixedState of (count, state) pairs, each weighted by count / total."""
    total = sum(k for k, _ in pairs)
    return MixedState(tuple((k / total, s) for k, s in pairs))


def normal_mass(s):
    """The weight of the normal part of s: 1 on a pure or normal state, and the
    discrete weight of the law on an averaged one."""
    if isinstance(s, MixedState):
        return sum(w * normal_mass(st) for w, st in s.components)
    if isinstance(s, AveragedState):
        return 1.0 - s.smoothing.lebesgue_split()[1]
    return 1.0


def laws_in(s):
    if isinstance(s, MixedState):
        return {law for _, st in s.components for law in laws_in(st)}
    return {s.smoothing} if isinstance(s, AveragedState) else set()


closure_leaves = st.builds(closure_leaf,
                           st.sampled_from(["pure", "normal", "averaged-pure", "averaged-normal"]),
                           st.sampled_from(CLOSURE_LAWS), st.integers(0, 2 ** 32 - 1))
closure_states = st.recursive(
    closure_leaves,
    lambda kids: st.lists(st.tuples(st.integers(1, 4), kids), min_size=1, max_size=3)
    .map(closure_mixture),
    max_leaves=6)


class TestClosure:
    """A mixture takes states of every kind, nested, and stays a state for every channel."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), closure_states), min_size=1, max_size=3),
           gram_terms)
    def test_convex_combinations(self, pairs, terms):
        s = closure_mixture(pairs)
        A = AlgebraElement.of(terms)
        scale = sum(abs(c) for c, _, _ in terms)
        # evaluate is linear in the state
        want = sum(w * evaluate(st, A) for w, st in s.components)
        assert abs(evaluate(s, A) - want) <= 1e-12 * scale
        # the split: its weights sum to 1, p is the normal mass, and the
        # mixture of its parts has p as its witness on a covering set
        p, normal, singular = yosida_hewitt_split(s.components)
        assert 0.0 <= p <= 1.0 and abs(p - normal_mass(s)) <= 1e-12
        parts = [(w, part) for w, part in ((p, normal), (1.0 - p, singular)) if part is not None]
        leaves = [w * v for w, part in parts
                  for v in ([v for v, _ in part.components] if isinstance(part, MixedState)
                            else [1.0])]
        assert abs(math.fsum(leaves) - 1.0) <= 1e-12
        rebuilt = MixedState(tuple(parts))
        assert abs(normality_witness(rebuilt, [COVER]) - p) <= 1e-12
        assert abs(normality_witness(s, [COVER]) - p) <= 1e-12
        # channel_T and averaged_T take every kind; the average is linear
        assert abs(evaluate(channel_T(0.5, s), IDENTITY) - 1.0) <= 1e-12
        laws = laws_in(s)
        d = next((law for law in (Gaussian(0.5), Cauchy(0.5))
                  if laws <= {law.__class__(1.0), law.__class__(0.5)}), PointMass(0.0))
        avg = averaged_T(d, s)
        assert abs(evaluate(avg, IDENTITY) - 1.0) <= 1e-12
        want = sum(w * evaluate(averaged_T(d, st), A) for w, st in s.components)
        assert abs(evaluate(avg, A) - want) <= 1e-12 * scale

    def test_two_averaged_states_under_different_laws(self):
        s = PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)]))
        g, m = averaged_T(Gaussian(1.0), s), averaged_T(MIXTURE, PAIR_DENSITY)
        mix = MixedState(((0.3, g), (0.7, m)))
        A = AlgebraElement.mult(indicator(-0.5, 1.5))
        assert evaluate(mix, A) == 0.3 * evaluate(g, A) + 0.7 * evaluate(m, A)
        est = evaluate(mix, A, "mc", 4_000, SeededRng(40).stream(0))
        assert isinstance(est, McEstimate) and est.samples == 4_000 and est.stderr > 0.0
        assert abs(est.value - evaluate(mix, A)) <= 4.0 * est.stderr
        assert channel_T(0.5, mix) == MixedState(((0.3, channel_T(0.5, g)),
                                                  (0.7, channel_T(0.5, m))))
        assert averaged_T(PointMass(0.0), mix) == mix
        gg = MixedState(((0.3, g), (0.7, averaged_T(Gaussian(2.0), PAIR_DENSITY))))
        assert averaged_T(Gaussian(0.5), gg) == MixedState(
            ((0.3, AveragedState(s, Gaussian(1.5))),
             (0.7, AveragedState(PAIR_DENSITY, Gaussian(2.5)))))
        # the atoms +-1 of the mixture law carry half of m's mass, all of it normal
        assert normality_witness(mix, [COVER]) == pytest.approx(0.35, abs=1e-15)
        p, normal, singular = yosida_hewitt_split([(1.0, mix)])
        assert p == pytest.approx(0.35, abs=1e-15)
        assert [st.support for _, st in normal.components] == [(1.0, 2.0), (-1.0, 0.0)]
        # the singular part is normalised by its own weight, 0.3 + 0.35
        assert singular == MixedState(((0.3 / (0.3 + 0.35), g),
                                       (0.35 / (0.3 + 0.35), AveragedState(PAIR_DENSITY,
                                                                          Gaussian(1.0)))))

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_projector_value_of_a_mixture(self, method):
        # <sum w s, P_v> = sum w <s, P_v>, with mixtures nested; under mc each
        # component draws from the one generator in turn
        s = PureState(make_vector([(0.0, 0.6), (1.0, 0.8j)]))
        parts = [averaged_T(Rademacher(), s), averaged_T(MIXTURE, PAIR_DENSITY),
                 averaged_T(Gaussian(1.0), s)]
        mix = MixedState(((0.25, parts[0]),
                          (0.75, MixedState(((0.4, parts[1]), (0.6, parts[2]))))))
        v = make_vector([(-1.0, 0.6), (1.0, 0.8)])

        def value(st, gen):
            return projector_value(st, v, method, 2_000, gen)

        gen = SeededRng(41).stream(0)
        want = 0.25 * value(parts[0], gen) + 0.75 * (0.4 * value(parts[1], gen)
                                                     + 0.6 * value(parts[2], gen))
        got = value(mix, SeededRng(41).stream(0))
        assert got.hex() == want.hex() and got > 0.0
        # a plain mixture is a base, and so is every plain state in a mixture
        for bad, plain in ((KINDS["mixed"], KINDS["mixed"]),
                           (MixedState(((0.5, parts[0]), (0.5, s))), s)):
            with pytest.raises(TypeError, match=f"^not an averaged state: {re.escape(repr(plain))}$"):
                value(bad, SeededRng(41).stream(0))
