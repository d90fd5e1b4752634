import cmath
import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomdyn.atoms import AtomicVector, cmul, inner, make_vector, norm, unit_atom
from atomdyn.algebra import (
    ONE,
    ZERO,
    AlgebraElement,
    Multiplier,
    adjoint,
    apply_element,
    apply_mod,
    apply_shift,
    compose,
    constant,
    generator_apply,
    indicator,
    shift_overlaps,
    wave,
    weyl_residual,
)
from atomdyn.rand import Cauchy, Gaussian, Rademacher, SeededRng


def random_vector(gen, max_atoms=6):
    k = int(gen.integers(1, max_atoms + 1))
    ps = gen.uniform(-10, 10, k)
    cs = gen.normal(size=k) + 1j * gen.normal(size=k)
    return make_vector(list(zip(ps, cs)))


class TestShiftAndMod:
    def test_shift_moves_atom(self):
        assert apply_shift(1.0, unit_atom(0)) == unit_atom(-1.0)

    def test_shift_identity_and_group_law(self):
        gen = np.random.default_rng(2)
        u = random_vector(gen)
        assert apply_shift(0.0, u) == u
        h = 1.25
        assert apply_shift(-h, apply_shift(h, u)) == u

    def test_mod_phase(self):
        v = apply_mod(math.pi, unit_atom(1))
        assert v.amplitude(1.0) == pytest.approx(cmath.exp(1j * math.pi))

    def test_mod_identity(self):
        gen = np.random.default_rng(3)
        u = random_vector(gen)
        assert apply_mod(0.0, u) == u

    def test_mod_eigenrelation(self):
        h, p = 0.7, 2.5
        v = apply_mod(h, unit_atom(p))
        assert v.amplitude(p) == pytest.approx(cmath.exp(1j * p * h))

    def test_isometries(self):
        gen = np.random.default_rng(5)
        for _ in range(100):
            u = random_vector(gen)
            h = float(gen.uniform(-5, 5))
            n0 = norm(u)
            assert norm(apply_shift(h, u)) == pytest.approx(n0, rel=1e-14)
            assert norm(apply_mod(h, u)) == pytest.approx(n0, rel=1e-14)

    def test_shift_merges_colliding_atoms(self):
        # 0.0 - 1.0 and 1e-300 - 1.0 round to the same frequency
        s = apply_shift(1.0, make_vector([(0.0, 0.6), (1e-300, 0.8j)]))
        assert s == make_vector([(-1.0, 0.6 + 0.8j)])
        assert abs(norm(s) ** 2 - inner(s, s).real) <= 1e-15

    def test_shift_strong_continuity_decay(self):
        # ||S_t u - u||^2 = sum |c|^2 |e^{ipt} - 1|^2 -> 0 like O(t)
        u = make_vector([(1.0, 0.6), (3.0, 0.8j)])
        prev = None
        for t in (1e-2, 1e-3, 1e-4):
            gap = norm(apply_mod(t, u) + (-1.0) * u)
            assert gap <= 4.0 * t  # |e^{ipt}-1| <= |p| t
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_non_finite_shift_and_modulation_rejected(self):
        u = make_vector([(0.0, 0.6), (1.0, 0.8j)])
        with pytest.raises(ValueError, match=r"^non-finite shift: nan$"):
            apply_shift(math.nan, u)
        with pytest.raises(ValueError, match=r"^non-finite modulation: inf$"):
            apply_mod(math.inf, u)


class TestShiftOverlaps:
    @staticmethod
    def per_sample(u, v, xs):
        return np.array([inner(apply_shift(float(x), u), v) for x in xs], dtype=complex)

    def assert_bit_equal(self, u, v, xs):
        got = shift_overlaps(u, v, xs)
        assert np.array_equal(got.view(float), self.per_sample(u, v, xs).view(float))

    @pytest.mark.parametrize("law", [Gaussian(1.0), Cauchy(0.5), Rademacher()],
                             ids=["gaussian", "cauchy", "rademacher"])
    @pytest.mark.parametrize("u,v", [
        (unit_atom(0.0), unit_atom(1.0)),
        (make_vector([(-1.0, 0.6), (0.0, 0.8j), (1.0, -0.5)]),
         make_vector([(-2.0, 1.0), (0.0, 0.3 - 0.4j), (2.0, 0.5)])),
        (make_vector([(-0.0, 1.0), (1.0, 1j), (1e16, 2.0)]),
         make_vector([(0.0, 1.0), (-1.0, 0.5), (1e16, 1j)])),
    ], ids=["one-atom", "three-atom", "signed-zero-and-1e16"])
    def test_matches_per_sample_inner(self, law, u, v):
        xs = law.sample(SeededRng(12).stream(0), 20_000)
        self.assert_bit_equal(u, v, np.concatenate([xs, [1.0, -1.0, 0.0, -0.0]]))

    def test_rounded_shift_lands_on_large_atom(self):
        # 1e16 - 1.0 rounds to 1e16
        u = unit_atom(1e16)
        assert shift_overlaps(u, u, np.array([1.0]))[0] == 1.0
        self.assert_bit_equal(u, make_vector([(1e16, 0.5j), (3.0, 1.0)]), np.array([1.0, 2.0]))

    def test_colliding_atoms_merge_first(self):
        # 0.0 and 1e-300 both land on -1.0 and merge there:
        # conj(0.1 + 0.7) 0.3 = 0.23999999999999996, not 0.1 0.3 + 0.7 0.3 = 0.24
        u = make_vector([(0.0, 0.1), (1e-300, 0.7), (2.0, 1j)])
        v = make_vector([(-1.0, 0.3), (1.0, 1.0)])
        assert shift_overlaps(u, v, np.array([1.0]))[0] == 0.23999999999999996 - 1j
        self.assert_bit_equal(u, v, np.array([1.0, 0.5, 0.0]))

    def test_empty_vectors(self):
        xs = np.array([0.0, 1.0])
        assert not shift_overlaps(AtomicVector(), unit_atom(0.0), xs).any()
        assert not shift_overlaps(unit_atom(0.0), AtomicVector(), xs).any()
        assert shift_overlaps(unit_atom(0.0), unit_atom(0.0), np.empty(0)).shape == (0,)

    def test_shift_past_the_float_range(self):
        # the rule of apply_shift: an error that names the shift, not an
        # overflow warning and a zero overlap
        u, v = make_vector([(1e308, 1.0)]), make_vector([(1.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="shift -1e[+]308"):
                shift_overlaps(u, v, np.array([0.5, -1e308]))
            with pytest.raises(ValueError, match="shift -1e[+]308"):
                apply_shift(-1e308, u)
            assert shift_overlaps(u, v, np.array([1e308]))[0] == 0j

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0, 1e-300, 1e16, 3.0]),
                              st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                                 allow_infinity=False)),
                    min_size=1, max_size=12),
           st.lists(st.tuples(st.sampled_from([0.0, -0.75, 0.5, 1.0, -1.0, 1e16, 2.0]),
                              st.sampled_from([1.0, -0.5j, 0.3 - 0.4j, -0.0 + 0.0j, 1e150])),
                    min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 7, 700, 3_000]))
    def test_atom_table_against_per_sample_inner(self, us, vs, seed, n):
        # one (atoms x shifts) table per run of shifts: shifts that land,
        # merge two atoms, move by signed zeros or miss, across run ends
        u, v = make_vector(us), make_vector(vs)
        c = np.subtract.outer(u.freqs, v.freqs).ravel()
        gen = np.random.default_rng(seed)
        xs = gen.choice(np.concatenate([c, [0.0, -0.0, 1e-300, 0.5], gen.uniform(-4, 4, 4)]), n)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = self.per_sample(u, v, xs)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    shift_overlaps(u, v, xs)
                return
        assert np.array_equal(shift_overlaps(u, v, xs).view(float), want.view(float))

    def test_many_hits_add_in_atom_order(self):
        # on one grid, most shifts land several atoms of u on v, and their
        # products add in u's order, as inner adds them
        gen = np.random.default_rng(13)
        for k in (3, 8, 40):
            u = make_vector(zip(range(k), gen.normal(size=k) + 1j * gen.normal(size=k)))
            v = make_vector(zip(range(k), gen.normal(size=k) + 1j * gen.normal(size=k)))
            xs = np.arange(-k + 1, k, dtype=float)
            self.assert_bit_equal(u, v, np.tile(xs, 300 // k))


class TestWeyl:
    def test_seeded_triples(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            u = random_vector(gen)
            h, a = (float(x) for x in gen.uniform(-8, 8, 2))
            assert weyl_residual(h, a, u) <= 1e-12

    def test_trivial_cases_exact(self):
        u = make_vector([(0.5, 1.0), (2.0, 1j)])
        assert weyl_residual(0.0, 3.0, u) == 0.0
        assert weyl_residual(3.0, 0.0, u) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            weyl_residual(1.0, 1.0, AtomicVector())


class TestPhaseOverflow:
    """A phase a p past the float range raises ValueError naming a and p."""

    @pytest.mark.parametrize("call,message", [
        (lambda: apply_mod(10.0, unit_atom(1e308)), "the phase 10.0 * 1e+308"),
        # the end of larger magnitude decides
        (lambda: apply_mod(-10.0, make_vector([(-1e308, 1.0), (1.0, 1.0)])),
         "the phase -10.0 * -1e+308"),
        (lambda: generator_apply(1e308, unit_atom(1e308)), "the phase 1e+308 * 1e+308"),
        (lambda: weyl_residual(1.0, 1e308, unit_atom(1e308)), "the phase 1e+308 * 1e+308"),
        # the phase e^{iah} of the relation itself: a times h
        (lambda: weyl_residual(1e308, 1e308, unit_atom(1.0)), "the phase 1e+308 * 1e+308"),
    ], ids=["mod", "mod-low-end", "generator", "weyl-mod", "weyl-relation"])
    def test_named(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message + " overflows the float range"

    def test_largest_finite_phase_passes(self):
        u = make_vector([(-1e308, 0.6), (1e308, 0.8)])
        assert norm(apply_mod(1.0, u)) == norm(u)
        assert len(generator_apply(1.0, u)) == 2
        assert weyl_residual(0.0, 1.0, u) == 0.0


class TestElementPhaseOverflow:
    """apply_element names a wave row's phase a q past the float range, as apply_mod does."""

    @pytest.mark.parametrize("A,u,message", [
        (AlgebraElement.mult(wave(10.0)), unit_atom(1e308), "the phase 10.0 * 1e+308"),
        # a shifted row: its frequencies q = p - h, the low end deciding, inside [lo, hi]
        (AlgebraElement.of([(1.0, ONE, 0.0), (2j, wave(-3.0) * indicator(-1e308, 1.0), 1.0)]),
         make_vector([(-1e308, 0.5), (0.0, 1.0)]), "the phase -3.0 * -1e+308"),
    ], ids=["mult", "shifted-row"])
    def test_named(self, A, u, message):
        with pytest.raises(ValueError) as err:
            apply_element(A, u)
        assert str(err.value) == message + " overflows the float range"

    @pytest.mark.parametrize("A,u", [
        # every q of the wave row lies outside [0, 1], so the row is 0
        (AlgebraElement.of([(1.0, ONE, 0.0), (2j, wave(-3.0) * indicator(0.0, 1.0), 1.0)]),
         make_vector([(-1e308, 0.5), (0.0, 1.0)])),
        # one wave row overflows outside its interval, another takes its phases
        (AlgebraElement.of([(1.0, wave(10.0) * indicator(-1.0, 1.0), 0.0),
                            (0.5j, wave(0.25), -0.5), (2.0, ONE, 1.0)]),
         make_vector([(-0.5, 0.6j), (0.0, 0.3), (1e308, 0.8)])),
    ], ids=["shifted-row", "two-wave-rows"])
    def test_phases_outside_the_interval_pass(self, A, u):
        # the scalar rule gives 0j outside [lo, hi] and takes no phase there
        assert vector_bits(apply_element(A, u)) == atom_bits(
            ref_apply_element(A.terms, ref_make([(a.p, a.c) for a in u])))

    def test_largest_finite_phase_passes(self):
        u = make_vector([(-1e308, 0.6), (1e308, 0.8)])
        A = AlgebraElement.of([(1.0, wave(1.0), 0.0), (0.5, ONE, 0.0), (1.0, indicator(0, 1), 1.0)])
        assert apply_element(A, u) == apply_mod(1.0, u) + 0.5 * u
        # a row with no wave computes no phase
        assert apply_element(AlgebraElement.shift(1e300), u) == apply_shift(1e300, u)


class TestAlgebraElement:
    def test_pure_shift_term(self):
        A = AlgebraElement.shift(1.5)
        gen = np.random.default_rng(11)
        u = random_vector(gen)
        assert apply_element(A, u) == apply_shift(1.5, u)

    def test_mult_on_basis_atom(self):
        f = indicator(0.0, 1.0)
        A = AlgebraElement.mult(f)
        assert apply_element(A, unit_atom(0.5)) == unit_atom(0.5)
        assert apply_element(A, unit_atom(2.0)) == AtomicVector()

    def test_measure_convolution(self):
        A = AlgebraElement.of([(0.5, ONE, 0.0), (0.5, ONE, 1.0)])
        out = apply_element(A, unit_atom(0.0))
        assert out == make_vector([(0.0, 0.5), (-1.0, 0.5)])

    def test_compose_identity(self):
        gen = np.random.default_rng(13)
        B = AlgebraElement.of(
            [(1.0 + 0.5j, indicator(-1, 1), 0.7), (0.3, constant(2.0), -0.2)]
        )
        u = random_vector(gen)
        lhs = apply_element(compose(AlgebraElement.identity(), B), u)
        assert lhs == apply_element(B, u)

    def test_compose_shift_past_mult(self):
        f = indicator(0.0, 1.0)
        A = compose(AlgebraElement.shift(0.5), AlgebraElement.mult(f))
        # action check on basis probes: S_h M_f 1_p = f(p) 1_{p-h}
        for p in (-0.2, 0.3, 0.9, 1.4):
            out = apply_element(A, unit_atom(p))
            expected = apply_shift(0.5, apply_element(AlgebraElement.mult(f), unit_atom(p)))
            assert out == expected

    def test_compose_shifts_add(self):
        A = compose(AlgebraElement.shift(1.0), AlgebraElement.shift(2.5))
        assert A == AlgebraElement.shift(3.5)

    def test_compose_matches_sequential_action(self):
        gen = np.random.default_rng(17)
        A = AlgebraElement.of([(0.5, indicator(-2, 2), 1.0), (1j, constant(1.5), 0.0)])
        B = AlgebraElement.of([(1.0, indicator(0, 3), -0.5), (0.25, constant(1.0), 2.0)])
        for _ in range(50):
            u = random_vector(gen)
            lhs = apply_element(compose(A, B), u)
            rhs = apply_element(A, apply_element(B, u))
            assert norm(lhs + (-1.0) * rhs) <= 1e-12 * max(1.0, norm(rhs))

    def test_compose_associative_on_probes(self):
        gen = np.random.default_rng(19)
        A = AlgebraElement.of([(1.0, indicator(-1, 1), 0.5)])
        B = AlgebraElement.of([(0.5, constant(2.0), -0.3)])
        C = AlgebraElement.of([(1j, indicator(0, 2), 1.0)])
        for _ in range(20):
            u = random_vector(gen)
            lhs = apply_element(compose(compose(A, B), C), u)
            rhs = apply_element(compose(A, compose(B, C)), u)
            assert norm(lhs + (-1.0) * rhs) <= 1e-12 * max(1.0, norm(rhs))

    def test_power_merges_terms_by_value(self):
        gen = np.random.default_rng(31)
        B = AlgebraElement.of([(0.5, wave(1.0), 0.25), (0.5, indicator(-1, 1), -0.5)])
        P = B
        for _ in range(7):
            P = compose(P, B)
        assert len(P.terms) < 2 ** 8
        for _ in range(10):
            u = random_vector(gen)
            rhs = u
            for _ in range(8):
                rhs = apply_element(B, rhs)
            lhs = apply_element(P, u)
            assert norm(lhs + (-1.0) * rhs) <= 1e-12 * max(1.0, norm(rhs))

    def test_empty_intersection_drops_term(self):
        assert indicator(0, 1) * indicator(2, 3) == constant(0)
        A = AlgebraElement.of([(1.0, indicator(0, 1), 0.0), (2.0, ONE, 0.5)])
        B = AlgebraElement.mult(indicator(2, 3))
        [(c, f, a)] = compose(A, B).terms
        assert (c, f, a) == (2.0, indicator(1.5, 2.5), 0.5)

    def test_adjoint_of_shift(self):
        assert adjoint(AlgebraElement.shift(2.0)) == AlgebraElement.shift(-2.0)

    def test_adjoint_duality(self):
        gen = np.random.default_rng(23)
        A = AlgebraElement.of([(0.7 + 0.1j, indicator(-3, 3), 0.4), (0.5, constant(1j), -1.0)])
        Astar = adjoint(A)
        for _ in range(50):
            u = random_vector(gen)
            v = random_vector(gen)
            lhs = inner(apply_element(A, u), v)
            rhs = inner(u, apply_element(Astar, v))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_adjoint_involution_on_probes(self):
        gen = np.random.default_rng(29)
        A = AlgebraElement.of([(1.0 + 2j, indicator(-1, 4), 0.8)])
        AA = adjoint(adjoint(A))
        for _ in range(20):
            u = random_vector(gen)
            diff = apply_element(A, u) + (-1.0) * apply_element(AA, u)
            assert norm(diff) <= 1e-12


class TestMultiplierData:
    def test_wave_carries_frequency_and_offset(self):
        f = wave(1.5).shifted(0.25).shifted(-1.0).conjugate()
        assert isinstance(f, Multiplier)
        assert f.a == -1.5 and abs(f.c - cmath.exp(-1.5j * -0.75)) <= 1e-15
        assert f == Multiplier(f.c, -1.5)
        g = wave(2.0)
        assert g.shifted(0.0) is g
        for y in (-2.0, 0.3, 7.5):
            assert f(y) == pytest.approx(cmath.exp(-1.5j * (y - 0.75)), abs=1e-14)

    def test_constant_survives_shift_and_conjugate(self):
        f = constant(2 + 1j).shifted(0.5).conjugate()
        assert isinstance(f, Multiplier) and f.c == 2 - 1j
        assert f == constant(2 - 1j)
        assert ONE.shifted(3.0) == ONE and ONE.conjugate() == ONE

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^empty interval \[2, 1\]$"):
            indicator(2, 1)

    def test_at_matches_pointwise_calls(self):
        ys = np.array([-3.0, -1.0, -0.2, 0.0, 0.5, 1.0, 2.25])
        funcs = [
            wave(0.7).shifted(1.25), wave(-2.0).conjugate(), indicator(-1.0, 1.0),
            indicator(0.5, 0.5).shifted(-0.5), constant(0.5j), ONE,
            wave(1.0) * indicator(-1.0, 1.0),
        ]
        for f in funcs:
            got = f.at(ys)
            assert got.dtype == complex and got.shape == ys.shape
            assert np.allclose(got, [f(float(y)) for y in ys], rtol=0, atol=1e-14)
        assert funcs[-1] == Multiplier(1, 1.0, -1.0, 1.0)
        assert funcs[2] == Multiplier(lo=-1.0, hi=1.0)

    def test_merging_by_tag_unchanged(self):
        A = AlgebraElement.of([(1.0, wave(1.0), 0.5), (2.0, wave(1.0), 0.5)])
        [(c, f, a)] = A.terms
        assert c == 3.0 and f == wave(1.0) and a == 0.5


class TestGenerator:
    def test_eigenrelation(self):
        out = generator_apply(1.0, unit_atom(2.0))
        assert out == make_vector([(2.0, 2j)])

    def test_zero_frequency(self):
        assert generator_apply(5.0, unit_atom(0.0)) == make_vector([])

    def test_finite_difference_rate(self):
        # ||(M_{th} u - u)/t - H_h u|| = O(t), second-order Taylor term
        h = 1.3
        u = make_vector([(1.0, 1.0), (2.0, 0.5j)])
        uhat = make_vector([(t.p, t.c) for t in u])
        gu = generator_apply(h, u)
        errors = []
        for t in (1e-3, 1e-4, 1e-5):
            stepped = apply_mod(t * h, uhat)
            diff = make_vector(
                [(a.p, (stepped.amplitude(a.p) - a.c) / t) for a in uhat]
            )
            resid = diff + (-1.0) * make_vector([(tm.p, tm.c) for tm in gu])
            # Taylor bound: |e^{ipth} - 1 - ipth| / t <= (p h)^2 t / 2
            bound = t * max(abs(tm.p * h) ** 2 for tm in u)
            assert norm(resid) <= bound
            errors.append(norm(resid))
        assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# Bit-equality with the dict-and-Python-complex rules
#
# Vectors are arrays; these references are the scalar rules the array code
# must reproduce bit for bit: a dict merge in input order, Python complex
# products, and apply_element as the fold out + c_j M_{f_j} S_{a_j} u.


def ref_make(pairs):
    acc = {}
    for p, c in pairs:
        p, c = float(p), complex(c)
        acc[p] = acc.get(p, 0j) + c
    return [(p, acc[p]) for p in sorted(acc) if acc[p] != 0]


def ref_shift(h, atoms):
    if h == 0:
        return atoms
    moved = [(p - h, c) for p, c in atoms]
    if any(x[0] == y[0] for x, y in zip(moved, moved[1:])):
        return ref_make(moved)
    return moved


def ref_mod(a, atoms):
    if a == 0:
        return atoms
    return [(p, cmath.exp(1j * a * p) * c) for p, c in atoms]


def ref_apply_element(terms, atoms):
    out = []
    for c, f, a in terms:
        mult = ref_make([(p, f(p) * x) for p, x in ref_shift(a, atoms)])
        out = ref_make(out + ref_make([(p, c * g) for p, g in mult]))
    return out


def atom_bits(atoms):
    """Exact bits of (p, c) pairs, telling -0.0 from 0.0."""
    return [(p.hex(), c.real.hex(), c.imag.hex()) for p, c in atoms]


def vector_bits(v):
    return atom_bits((a.p, a.c) for a in v)


frequencies = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1.0, -1.0, 0.5, 1e16, 1e16 + 2.0, 1e16 - 2.0]),
    st.integers(-16, 16).map(lambda j: j / 8.0),
    st.floats(-1e3, 1e3, allow_nan=False),
)
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1e3, 1e3, allow_nan=False))
amplitudes = st.builds(complex, parts, parts)
pair_lists = st.lists(st.tuples(frequencies, amplitudes), max_size=10)
shifts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
multipliers = st.one_of(
    st.just(ONE),
    st.floats(-3, 3, allow_nan=False).map(wave),
    st.tuples(frequencies, st.floats(0, 20)).map(lambda t: indicator(t[0], t[0] + t[1])),
    st.builds(Multiplier, amplitudes, st.floats(-3, 3), st.just(-math.inf), st.just(math.inf)),
)


class TestArrayRules:
    @settings(deadline=None)
    @given(pair_lists, shifts)
    def test_shift_mod_generator(self, pairs, h):
        u, ref = make_vector(pairs), ref_make(pairs)
        assert vector_bits(apply_shift(h, u)) == atom_bits(ref_shift(h, ref))
        assert vector_bits(apply_mod(h, u)) == atom_bits(ref_mod(h, ref))
        assert vector_bits(generator_apply(h, u)) == atom_bits(
            ref_make([(p, 1j * h * p * c) for p, c in ref]))

    def test_shift_collisions(self):
        # 0.0 and 1e-300 both land on -1.0; 1e16 - 1 rounds to 1e16
        pairs = [(0.0, 0.1), (1e-300, 0.7), (1e16, 1j), (1e16 + 2.0, 2.0), (3.0, 1.0)]
        u = make_vector(pairs)
        out = apply_shift(1.0, u)
        assert vector_bits(out) == atom_bits(ref_shift(1.0, ref_make(pairs)))
        assert out.frequencies == (-1.0, 2.0, 1e16)
        assert out.amplitude(-1.0) == 0.7999999999999999 + 0j

    @settings(deadline=None)
    @given(pair_lists, st.lists(st.tuples(amplitudes, multipliers, shifts), min_size=3, max_size=3))
    # every term a wave, so the exponential runs on every row
    @example([(0.0, 0.6), (0.5, 0.8j), (-1.25, 1.0)],
             [(1.0, wave(1.5), 0.5), (0.5j, Multiplier(1, -0.75, -1.0, 2.0), -0.25),
              (2.0, wave(3.0), 0.0)])
    def test_apply_element(self, pairs, terms):
        u, A = make_vector(pairs), AlgebraElement.of(terms)
        assert vector_bits(apply_element(A, u)) == atom_bits(
            ref_apply_element(A.terms, ref_make(pairs)))

    @settings(deadline=None)
    @given(pair_lists, amplitudes, shifts, st.tuples(amplitudes, multipliers, shifts))
    def test_apply_element_with_exact_cancellation(self, pairs, c, a, third):
        # the first two terms cancel on every atom, then the third adds in;
        # a zero shift keeps a -0.0 key of u while the others bring 0.0
        A = AlgebraElement.of([(c, ONE, a), (-c, indicator(-1e300, 1e300), a), third])
        assume(len(A.terms) == 3)
        u = make_vector(pairs)
        assert vector_bits(apply_element(A, u)) == atom_bits(
            ref_apply_element(A.terms, ref_make(pairs)))

    def test_zero_key_follows_the_fold(self):
        u = make_vector([(-0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        kept = AlgebraElement.of([(1.0, ONE, 0.0), (0.5, ONE, 2.0)])
        restarted = AlgebraElement.of([(1.0, ONE, 0.0), (-1.0, ONE, 1.0), (0.5, ONE, 2.0)])
        assert apply_element(kept, u).freqs[2].hex() == (-0.0).hex()
        assert apply_element(restarted, u).freqs[2].hex() == (0.0).hex()
        for A in (kept, restarted):
            assert vector_bits(apply_element(A, u)) == atom_bits(
                ref_apply_element(A.terms, ref_make([(a.p, a.c) for a in u])))


# ---------------------------------------------------------------------------
# The term table: apply_element, compose and adjoint against per-term rules
#
# The references build every product term as its own Multiplier, field by
# field, with the exchange rule written out once more on the fields, and
# merge the terms in a dict in first-seen order.


def ref_shifted(f, h):
    if h == 0:
        return f
    c = f.c * cmath.exp(1j * f.a * h) if f.a else f.c
    return Multiplier(c, f.a, f.lo - h, f.hi - h)


def ref_conjugate(f):
    return Multiplier(f.c.conjugate(), -f.a, f.lo, f.hi)


def ref_mul(f, g):
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    if lo > hi:
        return Multiplier(0j)
    return Multiplier(f.c * g.c, f.a + g.a, lo, hi)


def ref_normal_form(terms):
    merged = {}
    for c, f, a in terms:
        c = complex(c)
        if f.c != 1:
            c, f = c * f.c, Multiplier(1 + 0j, f.a, f.lo, f.hi)
        if c == 0:
            continue
        key = (f, float(a))
        merged[key] = merged[key] + c if key in merged else c
    return [(c, f, a) for (f, a), c in merged.items() if c != 0]


def ref_compose(left, right):
    return ref_normal_form((c1 * c2, ref_mul(f1, ref_shifted(f2, a1)), a1 + a2)
                           for c1, f1, a1 in left for c2, f2, a2 in right)


def ref_adjoint(terms):
    return ref_normal_form((c.conjugate(), ref_shifted(ref_conjugate(f), -a), -a)
                           for c, f, a in terms)


def term_bits(terms):
    """Exact bits of (c, f, a) triples in order."""
    def function_bits(f):
        assert type(f) is Multiplier
        return tuple(x.hex() for x in (f.c.real, f.c.imag, f.a, f.lo, f.hi))
    return [(c.real.hex(), c.imag.hex(), function_bits(f), a.hex()) for c, f, a in terms]


# multipliers as they come, constants other than 1 included; the normal
# form moves those into the weight
table_multipliers = st.one_of(
    multipliers,
    st.builds(lambda c, a, lo, width: Multiplier(c, a, lo, lo + width),
              amplitudes, st.floats(-3, 3), frequencies, st.floats(0, 20)),
)
term_lists = st.lists(st.tuples(amplitudes, table_multipliers, shifts), min_size=1, max_size=40)


# the 2-term element of the sparse-large benchmark: unit phases of modulus 1/2,
# shifts and interval ends on the grid Z/8, so that B^n stays exact
phases = st.floats(0, 1).map(lambda x: 0.5 * cmath.exp(2j * math.pi * x))
grid_shifts = st.integers(-8, 8).filter(bool).map(lambda j: j / 8.0)
benchmark_elements = st.builds(
    lambda c1, g1, b, c2, g2, ends: [(c1, wave(b), g1), (c2, indicator(*sorted(ends)), g2)],
    phases, grid_shifts, st.floats(0.1, 2.0), phases, grid_shifts,
    st.tuples(st.integers(-32, 32), st.integers(-32, 32)).map(lambda t: (t[0] / 8.0, t[1] / 8.0)),
)
eight_atoms = st.lists(st.integers(-32, 32), min_size=8, max_size=8, unique=True).map(
    lambda js: [(j / 8.0, complex(1.0, j / 16.0)) for j in js])


class TestTermTable:
    @settings(deadline=None, max_examples=200)
    @given(pair_lists, term_lists)
    @example([(0.0, 0.1), (1e-300, 0.7), (1e16, 1j), (1e16 + 2.0, 2.0), (-0.0, 0.5)],
             [(1.0, ONE, 1.0), (0.5j, Multiplier(0.3 - 0.7j, 1.1), -0.0),
              (-1.0, Multiplier(2.0, 0.0, -1.0, 1.0), 0.0)])
    @example([(-0.0, 1.0), (1.0, 0.5)], [(1.0, ONE, -0.0), (0.5, wave(1.0), 1.0)])
    def test_apply_element(self, pairs, terms):
        A, u = AlgebraElement.of(terms), make_vector(pairs)
        assert vector_bits(apply_element(A, u)) == atom_bits(
            ref_apply_element(A.terms, ref_make(pairs)))

    def test_rows_that_collide(self):
        # by 1.0 the atoms 0.0 and 1e-300 merge, and so do 1e16 and 1e16 + 2;
        # by 1e-300 nothing merges, and its 0.0 key comes before the -0.0 key
        # that the zero shift brings
        pairs = [(-0.0, 0.25), (1e-300, 0.7), (1e16, 1j), (1e16 + 2.0, 2.0), (3.0, 1.0)]
        terms = [(1.0, ONE, 1.0), (0.5, wave(0.5), 1e-300), (1j, indicator(-2.0, 5.0), 1.0),
                 (0.25, ONE, 0.0)]
        A, u = AlgebraElement.of(terms), make_vector(pairs)
        out = apply_element(A, u)
        assert vector_bits(out) == atom_bits(ref_apply_element(A.terms, ref_make(pairs)))
        assert out.freqs[out.freqs == 0][0].hex() == (0.0).hex()

    @settings(deadline=None, max_examples=150)
    @given(term_lists.map(lambda t: t[:6]), term_lists.map(lambda t: t[:4]))
    # max and min keep the first of two equal ends, -0.0 or 0.0
    @example([(1.0, indicator(-0.0, 1.0), 0.0)], [(1.0, indicator(0.0, 2.0), 0.0)])
    def test_compose_and_adjoint(self, left, right):
        A, B = AlgebraElement.of(left), AlgebraElement.of(right)
        assert term_bits(A.terms) == term_bits(ref_normal_form(left))
        assert term_bits(compose(A, B).terms) == term_bits(ref_compose(A.terms, B.terms))
        assert term_bits(compose(B, A).terms) == term_bits(ref_compose(B.terms, A.terms))
        assert term_bits(adjoint(A).terms) == term_bits(ref_adjoint(A.terms))
        assert term_bits(adjoint(compose(A, B)).terms) == term_bits(
            ref_adjoint(ref_compose(A.terms, B.terms)))

    @settings(deadline=None, max_examples=20)
    @given(benchmark_elements, eight_atoms)
    def test_powers_of_the_benchmark_element(self, terms, pairs):
        B = AlgebraElement.of(terms)
        P, ref = B, ref_normal_form(terms)
        assert term_bits(B.terms) == term_bits(ref)
        for _ in range(7):
            P, ref = compose(P, B), ref_compose(ref, B.terms)
            assert term_bits(P.terms) == term_bits(ref)
        star, ref_star = adjoint(P), ref_adjoint(ref)
        assert term_bits(star.terms) == term_bits(ref_star)
        assert vector_bits(apply_element(star, make_vector(pairs))) == atom_bits(
            ref_apply_element(ref_star, ref_make(pairs)))

    def test_constructor_takes_the_normal_form_only(self):
        for f in (Multiplier(2.0), Multiplier(0.3 - 0.7j, 1.1, -2.0, 6.0), ZERO,
                  lambda y: y * y):
            with pytest.raises(ValueError, match="AlgebraElement.of"):
                AlgebraElement(((1.0, ONE, 0.0), (1.0, f, 0.5)))
        # a repeated (f, a) and a weight 0 would give a second element, and
        # hash, for the operator that .of gives
        for terms, same in (([(1, ONE, 0.0), (1, ONE, 0.0)], [(2, ONE, 0.0)]),
                            ([(1, wave(1.0), -0.0), (0.5, wave(1.0), 0.0)],
                             [(1.5, wave(1.0), 0.0)]),
                            ([(0, ONE, 0.0)], []),
                            ([(1.0, ONE, 0.5), (0j, wave(2.0), 0.0)], [(1.0, ONE, 0.5)])):
            with pytest.raises(ValueError, match="AlgebraElement.of"):
                AlgebraElement(terms)
            assert AlgebraElement.of(terms) == AlgebraElement.of(same)
        A = AlgebraElement.of([(1.0, Multiplier(2.0), 0.5)])
        assert A.terms == ((2.0, ONE, 0.5),) and AlgebraElement(A.terms) == A

    def test_product_terms_are_plain_multipliers(self):
        B = AlgebraElement.of([(0.5, wave(1.0), 0.25), (0.5j, indicator(-1, 1), -0.5)])
        P = compose(compose(B, B), adjoint(B))
        rebuilt = AlgebraElement(tuple(
            (c, Multiplier(f.c, f.a, f.lo, f.hi), a) for c, f, a in P.terms))
        for (_, f, _), (_, g, _) in zip(P.terms, rebuilt.terms):
            assert type(f) is Multiplier and vars(f) == vars(g)
            assert list(vars(f)) == ["c", "a", "lo", "hi"]
        assert P == rebuilt and hash(P) == hash(rebuilt) and repr(P) == repr(rebuilt)
        assert pickle.loads(pickle.dumps(P)) == P
        with pytest.raises(dataclasses.FrozenInstanceError):
            P.terms[0][1].a = 2.0

    def test_shift_past_the_float_range(self):
        top, bottom = make_vector([(1e308, 1.0)]), make_vector([(-1e308, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: apply_shift(-1e308, top),
                         lambda: weyl_residual(-1e308, 1.0, top),
                         lambda: apply_element(AlgebraElement.of(
                             [(1.0, ONE, 0.0), (1.0, wave(1.0), -1e308)]), top)):
                with pytest.raises(ValueError, match="shift -1e[+]308"):
                    call()
            with pytest.raises(ValueError, match="shift 1e[+]308"):
                apply_shift(1e308, bottom)
            assert apply_shift(-1e308, make_vector([(7e307, 1.0)])).frequencies == (1.7e308,)
            assert apply_shift(1e308, top).frequencies == (0.0,)
            for h in (math.nan, math.inf):
                with pytest.raises(ValueError, match="non-finite shift"):
                    apply_element(AlgebraElement.of([(1.0, ONE, 0.5), (1.0, ONE, h)]), top)


class TestRows:
    """Elements hold rows (c, data, a); Multiplier objects only come with .terms."""

    def test_non_finite_terms_fail_at_the_normal_form(self):
        heavy = AlgebraElement.of([(1e308, ONE, 0.0)])
        cases = [
            (lambda: AlgebraElement.of([(math.nan, ONE, 0.0)]), r"weight: \(nan\+0j\)"),
            (lambda: AlgebraElement.of([(1.0, ONE, 0.5), (complex(1, math.inf), ONE, 1.0)]),
             r"weight: \(1\+infj\)"),
            (lambda: AlgebraElement.mult(wave(math.inf)), "frequency: inf"),
            (lambda: AlgebraElement.of([(1.0, Multiplier(2.0, math.nan), 0.0)]), "frequency: nan"),
            (lambda: AlgebraElement.shift(-math.inf), "shift: -inf"),
            (lambda: AlgebraElement(((1.0, ONE, math.nan),)), "shift: nan"),
            (lambda: compose(heavy, heavy), r"weight: \(inf"),
            (lambda: heavy + heavy, r"weight: \(inf"),
            (lambda: math.inf * AlgebraElement.identity(), r"weight: \(inf"),
            (lambda: compose(AlgebraElement.modulation(1e308), AlgebraElement.modulation(1e308)),
             "frequency: inf"),
            (lambda: compose(AlgebraElement.shift(-1e308), AlgebraElement.shift(-1e308)),
             "shift: -inf"),
            # e^{iah} with a h past the float range
            (lambda: compose(AlgebraElement.shift(1e200), AlgebraElement.modulation(1e200)),
             r"phase: frequency 1e\+200 times shift 1e\+200"),
            (lambda: adjoint(AlgebraElement.of([(1.0, wave(1e200), 1e200)])),
             r"phase: frequency -1e\+200 times shift -1e\+200"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, message in cases:
                with pytest.raises(ValueError, match="non-finite " + message):
                    call()
            # sums that overflow only on the way are not errors
            big = AlgebraElement.of([(1e308, ONE, 1e308), (1e308, wave(1e308), 0.0)])
            assert big.rows == ((1e308 + 0j, (1 + 0j, 0.0, -math.inf, math.inf), 1e308),
                                (1e308 + 0j, (1 + 0j, 1e308, -math.inf, math.inf), 0.0))
            assert adjoint(adjoint(big)) == big

    def test_empty_and_nan_intervals(self):
        empty, low_nan, high_nan = (Multiplier(1, 0.0, 2.0, 1.0), Multiplier(1, 0.0, math.nan, 1.0),
                                    Multiplier(1, 0.0, 0.0, math.nan))
        # an empty interval is the zero multiplier, as an empty intersection is
        A = AlgebraElement.of([(1, empty, 0.0), (2.0, wave(1.0), 0.5), (3.0, empty, 0.5)])
        assert A == AlgebraElement.of([(2.0, wave(1.0), 0.5)])
        assert AlgebraElement.of([(1, empty, 0.0)]).rows == ()
        for f, end in ((low_nan, "lo"), (high_nan, "hi")):
            with pytest.raises(ValueError, match=f"NaN interval end {end}"):
                AlgebraElement.of([(1.0, ONE, 0.0), (1, f, 0.0)])
            with pytest.raises(ValueError, match=f"NaN interval end {end}"):
                AlgebraElement([(1, f, 0.0)])
        with pytest.raises(ValueError, match="empty interval.*AlgebraElement.of"):
            AlgebraElement([(1, empty, 0.0)])
        # products keep no NaN end and no empty interval
        P = compose(AlgebraElement.mult(indicator(0, 3)), AlgebraElement.mult(indicator(2, 5)))
        assert P.rows == ((1 + 0j, (1 + 0j, 0.0, 2.0, 3.0), 0.0),)
        assert compose(P, AlgebraElement.mult(indicator(4, 5))).rows == ()

    def test_chains_build_no_multiplier(self, monkeypatch):
        B = AlgebraElement.of([(0.5, wave(1.0), 0.25), (0.5j, indicator(-2.0, 1.5), -0.5)])
        pairs = [(j / 8.0, complex(1.0, j / 16.0)) for j in range(-3, 5)]
        u = make_vector(pairs)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a Multiplier was built")

        monkeypatch.setattr(Multiplier, "__init__", refuse)
        P = B
        for _ in range(7):
            P = compose(P, B)
        star = adjoint(P)
        out = apply_element(star, u)
        with pytest.raises(AssertionError):
            P.terms
        monkeypatch.undo()
        ref = ref_normal_form(B.terms)
        for _ in range(7):
            ref = ref_compose(ref, B.terms)
        assert len(P.rows) > 40
        assert term_bits(P.terms) == term_bits(ref)
        assert term_bits(star.terms) == term_bits(ref_adjoint(ref))
        assert vector_bits(out) == atom_bits(
            ref_apply_element(ref_adjoint(ref), ref_make(pairs)))
        for A in (P, star):
            again = AlgebraElement(A.terms)
            assert again == A and again.rows == A.rows
            assert hash(again) == hash(A) == hash((A.terms,))
            assert repr(again) == repr(A)
            assert A.terms is A.terms
            for copy in (pickle.loads(pickle.dumps(A)), pickle.loads(pickle.dumps(again))):
                assert copy == A and term_bits(copy.terms) == term_bits(A.terms)


# ---------------------------------------------------------------------------
# Multiplier.at against the plain numpy expression of its values


def plain_at(f, ys):
    """f on ys as one chain of numpy temporaries, each step a new array."""
    ys = np.asarray(ys, dtype=float)
    vals = cmul(f.c, np.exp(1j * f.a * ys)) if f.a else np.full(ys.shape, f.c)
    return np.where((f.lo <= ys) & (ys <= f.hi), vals, 0j)


def assert_same_bits(new, old):
    """Equal bytes, except that where a part of old is NaN, new has a NaN there."""
    assert new.dtype == old.dtype and new.shape == old.shape
    n, o = new.reshape(-1).view(float), old.reshape(-1).view(float)
    nan = np.isnan(o)
    assert np.array_equal(np.isnan(n), nan)
    assert n[~nan].tobytes() == o[~nan].tobytes()


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e16, 1.0])
at_parts = st.one_of(edge_floats, st.floats(-1e3, 1e3, allow_nan=False))
at_points = st.one_of(edge_floats, st.sampled_from([math.inf, -math.inf, math.nan]),
                      st.floats(-1e4, 1e4, allow_nan=False))
at_frequencies = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300]),
                           st.floats(-50, 50, allow_nan=False))
at_intervals = st.one_of(
    st.just((-math.inf, math.inf)),
    st.tuples(at_parts, st.floats(0, 1e3)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.just(-math.inf), at_parts),
    st.tuples(at_parts, st.just(math.inf)),
)


class TestMultiplierAtBits:
    # 16384 complex values are 256 KiB, where numpy starts to elide temporaries
    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.builds(complex, at_parts, at_parts), at_parts), at_frequencies,
           at_intervals,
           st.lists(at_points, min_size=1, max_size=24),
           st.sampled_from([1, 2, 3, 17, 16383, 16384]))
    def test_matches_plain_expression(self, c, a, interval, points, size):
        f = Multiplier(c, a, *interval)
        ys = np.resize(np.array(points), size)
        before = ys.tobytes()
        with np.errstate(all="ignore"):
            assert_same_bits(f.at(ys), plain_at(f, ys))
        assert ys.tobytes() == before

    def test_sample_sized_arrays(self):
        ys = SeededRng(4).stream(0).standard_cauchy(100_000)
        ys[::997] = np.nan
        for f in (wave(1.3).shifted(0.7), Multiplier(0.3 - 0.7j, -2.0),
                  wave(0.9) * indicator(-1.0, 2.0), constant(0.5j), ONE,
                  Multiplier(2.0), Multiplier(-0.5, 1.5), Multiplier(2.0, 0.0, -1.0, 1.0)):
            assert_same_bits(f.at(ys), plain_at(f, ys))

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(st.sampled_from([1, 1.0, 1 + 0j, 1 - 0j, -1, 0.5j]),
                     st.builds(complex, at_parts, at_parts), at_parts),
           at_frequencies, at_intervals,
           st.lists(at_points, min_size=1, max_size=24),
           st.sampled_from([1, 2, 3, 16383, 16384, 100_000]),
           st.integers(1, 20_000), st.integers(0, 2**32 - 1))
    def test_values_are_those_of_call(self, c, a, interval, points, size, chunk, seed):
        # each value is f(y) at its point, whatever the length of the array,
        # the position of the point in it, or the gather
        f = Multiplier(c, a, *interval)
        ys = np.resize(np.array(points, dtype=float), size)
        want, fine = [], []
        for y in points:
            try:
                want.append(complex(f(y)))
                fine.append(True)
            except (ValueError, OverflowError):  # cmath.exp of a phase that overflows
                want.append(0j)
                fine.append(False)
        fine = np.resize(np.array(fine), size)
        idx = np.random.default_rng(seed).integers(0, size, 1_000)
        chunk = max(chunk, -(-size // 100))
        with np.errstate(all="ignore"):
            got = f.at(ys)
            gathered = f.at(ys, idx)
            pieces = np.concatenate([f.at(ys[k:k + chunk]) for k in range(0, size, chunk)])
        assert_same_bits(got[fine], np.resize(np.array(want), size)[fine])
        assert_same_bits(gathered, got[idx])
        assert_same_bits(pieces, got)

