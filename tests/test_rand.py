import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomdyn.atoms import make_vector, norm, unit_atom
from atomdyn.algebra import apply_mod
from atomdyn.rand import (
    Cauchy,
    ConvolutionFamily,
    FiniteMixture,
    Gaussian,
    McEstimate,
    PointMass,
    Rademacher,
    SeededRng,
    Uniform,
    chernoff_error,
    convolve,
    distribution_from_json,
    expected_walk_apply,
    random_walk_apply,
)

ALL_LAWS = [
    Gaussian(1.0),
    Gaussian(2.5),
    Cauchy(0.7),
    Rademacher(),
    Uniform(-1.0, 2.0),
    PointMass(0.3),
    FiniteMixture(((0.5, Gaussian(1.0)), (0.5, Rademacher()))),
]


class TestChi:
    def test_gaussian_value(self):
        assert Gaussian(1.0).chi(1.0) == pytest.approx(math.exp(-0.5))

    def test_normalization(self):
        for d in ALL_LAWS:
            assert d.chi(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_rademacher_at_pi(self):
        assert Rademacher().chi(math.pi) == pytest.approx(-1.0)

    def test_bounded_and_hermitian(self):
        gen = np.random.default_rng(1)
        for d in ALL_LAWS:
            for x in gen.uniform(-10, 10, 50):
                c = d.chi(float(x))
                assert abs(c) <= 1.0 + 1e-12
                assert c.conjugate() == pytest.approx(d.chi(float(-x)), abs=1e-14)

    def test_positive_definite_kernel(self):
        gen = np.random.default_rng(2)
        for d in ALL_LAWS:
            for _ in range(10):
                m = int(gen.integers(2, 7))
                ps = gen.uniform(-5, 5, m)
                k = np.array(
                    [[d.chi(float(pj - pk)) for pk in ps] for pj in ps]
                )
                assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_has_discrete_part_flag(self):
        assert not Gaussian(1.0).has_discrete_part
        assert not Cauchy(1.0).has_discrete_part
        assert Rademacher().has_discrete_part
        assert PointMass(1.0).has_discrete_part
        assert FiniteMixture(((1.0, Gaussian(1.0)),)).has_discrete_part is False
        assert FiniteMixture(((0.5, Gaussian(1.0)), (0.5, PointMass(0.0)))).has_discrete_part

    def test_mixture_weight_validation(self):
        with pytest.raises(ValueError):
            FiniteMixture(((0.5, Gaussian(1.0)), (0.4, Rademacher())))


    def test_values_are_python_complex(self):
        # numpy scalars would print as np.float64(...) in csv reports
        for d in ALL_LAWS:
            assert type(d.chi(np.float64(1.3))) is complex
            assert type(d.chi_pow(1.3, 150)) is complex


def _bits(z):
    """The bytes of a complex array, so that == compares bit for bit."""
    return np.asarray(z, dtype=complex).tobytes()


EDGE_X = [1e308, -1e308, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
          0.0, -0.0, 1e-300, -1e-300, 1e154, 1e155, 1.0, -2.5]
scales = st.sampled_from([1e-300, 1e-5, 0.7, 1.0, 1e5, 1e300]) | st.floats(1e-300, 1e300)
locations = st.sampled_from([0.0, -1.0, 2.0, 1e-300, 1e300, -1e308]) | st.floats(-1e308, 1e308)


simple_laws = st.one_of(
    st.builds(Gaussian, scales),
    st.builds(Cauchy, scales),
    st.just(Rademacher()),
    st.tuples(locations, locations).filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: Uniform(min(ab), max(ab))),
    st.builds(PointMass, locations),
)
laws = simple_laws | st.builds(
    lambda w, d1, d2: FiniteMixture(((w, d1), (1.0 - w, d2))),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), simple_laws, simple_laws,
)
edge_x = st.lists(st.sampled_from(EDGE_X) | st.floats(-10.0, 10.0)
                  | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6)


class TestChiKernel:
    """One array kernel per law: numbers and arrays give the same bits."""

    @settings(max_examples=400, deadline=None)
    @given(laws, edge_x)
    def test_array_is_the_scalar_loop(self, d, xs):
        values = []
        for x in xs:
            try:
                c = d.chi(x)
            except ValueError as err:
                assert repr(x) in str(err) and type(d).__name__ in str(err)
                with pytest.raises(ValueError):
                    d.chi(np.array(xs))
                return
            assert type(c) is complex and type(d.chi_pow(x, 1)) is complex
            assert _bits(d.chi_pow(x, 1)) == _bits(c)
            assert math.isfinite(c.real) and math.isfinite(c.imag)
            assert abs(c) <= 1.0 + 1e-15
            values.append(c)
        arr = d.chi(np.array(xs))
        assert arr.dtype == complex and arr.shape == (len(xs),)
        assert _bits(arr) == _bits(values)
        assert _bits(d.chi_pow(np.array(xs), 1)) == _bits(values)
        assert d.chi(0.0) == 1.0 + 0j

    def test_shapes(self):
        x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
        for d in ALL_LAWS:
            out = d.chi(x)
            assert out.shape == (2, 3) and out.dtype == complex
            assert _bits(out.ravel()) == _bits([d.chi(v) for v in x.ravel().tolist()])
            assert d.chi([]).shape == (0,)

    def test_float_edges_keep_their_values_without_warnings(self):
        # pytest turns RuntimeWarning into errors; math.exp gave 0.0 here
        for x in (1e154, 1e155, 1e200, 1e308, -1e308):
            assert Gaussian(1.0).chi(x) == 0j and Gaussian(1.0).chi_pow(x, 3) == 0j
        assert np.all(Gaussian(1e300).chi(np.array([1e10, -1e300, 1e308])) == 0)
        assert Cauchy(1e300).chi(1e308) == 0j
        # the complex divide of the old form overflowed here, and its
        # rounded x b, x a and x (b - a) gave chi = 2 for Uniform(-0.6, 0.6)
        for d in (Uniform(-1.0, 1.0), Uniform(-1.0, 2.0), Uniform(-0.6, 0.6)):
            assert d.chi(5e-324) == 1 + 0j
            assert np.all(d.chi(np.array([0.0, 5e-324, -5e-324])) == 1)

    def test_uniform_stays_accurate_near_zero(self):
        # e^{ixb} - e^{ixa} cancels for 0 < a < b; the midpoint form does not
        with mpmath.workdps(40):
            for x in (1e-8, 1e-5, 0.3):
                want = (mpmath.exp(1j * x * 2) - mpmath.exp(1j * x)) / (1j * x)
                got = Uniform(1.0, 2.0).chi(x)
                assert abs(got - complex(want)) <= 4e-16

    def test_non_finite_phase_names_the_law_and_x(self):
        # these raised a bare "math domain error"
        with pytest.raises(ValueError, match=r"PointMass\(a=2\.0\).*x = 1e\+308"):
            PointMass(2.0).chi(1e308)
        with pytest.raises(ValueError, match=r"PointMass\(a=2\.0\).*x = 1e\+308"):
            PointMass(2.0).chi(np.array([1.0, 1e308]))
        with pytest.raises(ValueError, match=r"Uniform.*x = 2\.0"):
            Uniform(-1e308, 1e308).chi(2.0)
        with pytest.raises(ValueError, match=r"Gaussian.*x = nan"):
            Gaussian(1.0).chi(math.nan)
        # the phases x (a + b) / 2 and x (b - a) / 2 of Uniform(-1, 2) are
        # finite at 1e308, so chi has a value there: |chi| <= 1 / (x (b - a) / 2)
        c = Uniform(-1.0, 2.0).chi(1e308)
        assert abs(c) <= 1.0 / 1.5e308


class TestGaussRule:
    @pytest.mark.parametrize("d", [Gaussian(2.5), Cauchy(0.7), Uniform(-1.0, 2.0)])
    def test_weights_positive_and_restricted_mass_is_cdf(self, d):
        for n in (64, 128):
            ys, ws = d.gauss_rule(n)
            assert len(ys) == len(ws) == n
            assert np.all(ws > 0)
            assert ws.sum() == pytest.approx(1.0, abs=1e-13)
            for lo, hi in ((-0.5, 1.5), (0.25, 50.0), (-math.inf, 0.3)):
                ys, ws = d.gauss_rule(n, lo, hi)
                assert np.all((lo <= ys) & (ys <= hi))
                assert ws.sum() == pytest.approx(d.cdf(hi) - d.cdf(lo), abs=1e-13)

    def test_mixture_rule_is_the_weighted_union(self):
        d = FiniteMixture(((0.3, Gaussian(2.5)), (0.7, Cauchy(0.7))))
        for n in (64, 128):
            for lo, hi in ((-math.inf, math.inf), (-0.5, 1.5), (0.25, 50.0)):
                ys, ws = d.gauss_rule(n, lo, hi)
                assert len(ys) == len(ws) == 2 * n
                assert np.all(ws > 0) and np.all((lo <= ys) & (ys <= hi))
                assert ws.sum() == pytest.approx(d.cdf(hi) - d.cdf(lo), abs=1e-13)

    def test_empty_window(self):
        ys, ws = Uniform(-1.0, 2.0).gauss_rule(64, 3.0, 4.0)
        assert len(ys) == len(ws) == 0

    @pytest.mark.parametrize("d", [Rademacher(), PointMass(0.3), ALL_LAWS[-1]])
    def test_laws_without_rule_raise(self, d):
        with pytest.raises(NotImplementedError):
            d.gauss_rule(64)


class TestWideUniform:
    """A Uniform law whose range b - a overflows: its halves do not."""

    d = Uniform(-1e308, 1e308)

    def test_cdf(self):
        assert [self.d.cdf(x) for x in (-math.inf, -1e308, 0.0, 5e307, 1e308, math.inf)] == [
            0.0, 0.0, 0.5, 0.75, 1.0, 1.0]

    def test_indicator_expectation(self):
        from atomdyn.algebra import indicator
        from atomdyn.channels import expect_function

        # P(0 <= xi <= 1e308) = 0.5; it was 0j
        assert expect_function(self.d, indicator(0.0, 1e308), 0.0) == 0.5

    def test_gauss_rule(self):
        for lo, hi, mass in ((-math.inf, math.inf, 1.0), (0.0, 1e308, 0.5)):
            ys, ws = self.d.gauss_rule(64, lo, hi)
            assert np.all(np.isfinite(ys)) and max(lo, -1e308) < ys.min() < ys.max() < hi
            assert ws.sum() == pytest.approx(mass, rel=1e-12)
        # a range whose midpoint sum overflows
        ys, ws = Uniform(1e308, 1.7e308).gauss_rule(64)
        assert 1e308 < ys.min() < ys.max() < 1.7e308 and ws.sum() == pytest.approx(1.0)

    def test_draws_name_the_law(self):
        with pytest.raises(ValueError, match=re.escape(
                "cannot draw from Uniform(a=-1e+308, b=1e+308): its range b - a overflows")):
            self.d.draw(SeededRng(0).stream(0), 10)

    def test_moments(self):
        # halves where a + b overflows, inf where (b - a)^2 does, and the plain
        # expressions, bit for bit, everywhere else
        assert Uniform(1e308, 1.7e308).mean == 1.35e308
        assert self.d.mean == 0.0 and self.d.variance == math.inf
        assert Uniform(-1e200, 1e200).variance == math.inf
        top = math.sqrt(1.7976931348623157e308)  # the largest float whose square is finite
        assert Uniform(0.0, top).variance == top ** 2 / 12.0
        assert Uniform(0.0, math.nextafter(top, math.inf)).variance == math.inf
        gen = np.random.default_rng(5)
        for a, b in np.sort(gen.normal(size=(200, 2)) * 10.0 ** gen.integers(-150, 150, (200, 1))):
            d = Uniform(float(a), float(b))
            assert d.mean.hex() == (0.5 * (d.a + d.b)).hex()
            assert d.variance.hex() == ((d.b - d.a) ** 2 / 12.0).hex()
        wide = FiniteMixture(((0.5, PointMass(-1e200)), (0.5, PointMass(1e200))))
        assert wide.variance == math.inf


class TestMcEstimate:
    """``McEstimate.of`` takes its squared deviations in the real parts of its values."""

    @staticmethod
    def spread(n):
        gen = np.random.default_rng(n)
        return gen.standard_cauchy(n) * np.exp(1j * gen.uniform(-4.0, 4.0, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16_383, 16_384, 100_000, 100_001])
    def test_bits_of_a_separate_buffer(self, n):
        vals = self.spread(n)
        # the deviations in a separate contiguous float array
        ref = vals.copy()
        mean = complex(ref.mean())
        ref -= mean
        sq = np.abs(ref)
        var = float(np.mean(np.square(sq, out=sq)))
        est = McEstimate.of(vals)
        assert (est.value.real.hex(), est.value.imag.hex()) == (mean.real.hex(), mean.imag.hex())
        assert est.stderr.hex() == math.sqrt(var / n).hex() and est.samples == n

    def test_makes_no_array_of_its_samples(self):
        n = 100_000
        vals = self.spread(n)
        tracemalloc.start()
        try:
            McEstimate.of(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n


EDGE_PARTS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1.7e308, math.nan]


class TestMcEstimateOfATable:
    """``McEstimate.of(t, idx)`` is the estimate of the gathered samples t[idx], bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(EDGE_PARTS) | st.floats(allow_infinity=False),
                              st.sampled_from(EDGE_PARTS) | st.floats(allow_infinity=False)),
                    min_size=1, max_size=16),
           st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 1_000, 16_385]),
           st.integers(0, 2 ** 32 - 1))
    def test_hex_equal_to_the_gather(self, parts, n, seed):
        t = np.array([complex(re_, im) for re_, im in parts])
        gen = np.random.default_rng(seed)
        # about half of the locations are never drawn (one always is)
        used = np.flatnonzero(gen.random(len(t)) < 0.5)
        idx = gen.choice(used if used.size else np.array([len(t) - 1]), n)
        with np.errstate(all="ignore"):
            got = McEstimate.of(t.copy(), idx)
            want = McEstimate.of(t[idx])
        assert got.samples == want.samples == n
        assert ((got.value.real.hex(), got.value.imag.hex(), got.stderr.hex())
                == (want.value.real.hex(), want.value.imag.hex(), want.stderr.hex()))

    def test_skipped_locations_do_not_count(self):
        # a NaN or a huge value at a location no draw takes leaves no trace
        t = np.array([1.0 + 2.0j, math.nan, 1e308 - 1e308j, -0.0 + 0.5j])
        idx = np.array([0, 3, 3, 0, 0, 3, 3])
        with np.errstate(all="ignore"):
            est = McEstimate.of(t.copy(), idx)
        assert est == McEstimate.of(t[idx]) and math.isfinite(est.stderr)

    def test_makes_no_complex_array_past_the_mean(self):
        n = 100_000
        t = TestMcEstimate.spread(2)
        idx = np.random.default_rng(3).integers(0, 2, n)
        tracemalloc.start()
        try:
            McEstimate.of(t, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the complex gather (16 n bytes) is freed before the float one (8 n) is made
        assert peak < 17 * n


ATOM_MIXTURES = [
    FiniteMixture(((0.5, PointMass(-1.0)), (0.5, PointMass(2.0)))),
    FiniteMixture(((0.3, Rademacher()),
                   (0.7, FiniteMixture(((0.5, PointMass(0.5)), (0.5, Rademacher())))))),
    FiniteMixture(((0.5, PointMass(-0.0)), (0.25, PointMass(0.0)), (0.25, Rademacher()))),
    FiniteMixture(((0.6, Rademacher()), (0.0, Gaussian(1.0)), (0.4, PointMass(0.25)))),
    FiniteMixture(((0.1, PointMass(1.0)), (0.2, PointMass(-1.0)), (0.7, Rademacher()))),
]
ATOM_MIXTURE_IDS = ["two-points", "nested", "signed-zeros", "weight-0-gaussian", "repeats"]


def plain_sample(d, gen, size):
    """The draws of d, every mixture's written out on values: the component counts, each
    component's draws in turn, one shuffle."""
    if not isinstance(d, FiniteMixture):
        return d.sample(gen, size)
    ws = np.array([w for w, _ in d.components])
    counts = gen.multinomial(size, ws / ws.sum())
    out = np.concatenate([np.empty(0)] + [plain_sample(c, gen, k)
                                          for (_, c), k in zip(d.components, counts.tolist())])
    gen.shuffle(out)
    return out


class TestAtomMixtureDraws:
    @pytest.mark.parametrize("d", ATOM_MIXTURES, ids=ATOM_MIXTURE_IDS)
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 1_000, 16_384, 100_000])
    def test_indices_replay_the_values(self, d, size):
        assert d.continuous_weight() == 0
        g1, g2 = SeededRng(8).stream(size), SeededRng(8).stream(size)
        locs, idx = d.draw(g1, size)
        assert locs.dtype == np.float64 and idx.dtype == np.int64 and idx.shape == (size,)
        assert locs[idx].tobytes() == plain_sample(d, g2, size).tobytes()
        assert g1.random() == g2.random()

    def test_tables_of_the_components_that_drew(self):
        law = FiniteMixture(((0.5, Rademacher()), (0.5, PointMass(1.0)), (0.0, PointMass(1e308))))
        locs, idx = law.draw(SeededRng(9).stream(0), 1_000)
        # the table repeats 1.0 and leaves out the point mass that drew nothing
        assert locs.tolist() == [-1.0, 1.0, 1.0]
        assert np.bincount(idx, minlength=3).min() > 0

    def test_a_continuous_part_keeps_the_values(self):
        law = FiniteMixture(((0.5, PointMass(1.0)), (0.5, Uniform(0.0, 1.0))))
        g1, g2 = SeededRng(10).stream(0), SeededRng(10).stream(0)
        xs, idx = law.draw(g1, 100)
        assert idx is None and xs.tobytes() == plain_sample(law, g2, 100).tobytes()


class TestLebesgueSplit:
    def test_continuous_part(self):
        g, c = Gaussian(1.0), Cauchy(0.5)
        assert g.continuous_part() is g
        assert Rademacher().continuous_part() is None
        assert PointMass(0.3).continuous_part() is None
        assert FiniteMixture(((0.5, Rademacher()), (0.5, g))).continuous_part() is g
        law = FiniteMixture(((0.2, Rademacher()), (0.4, g), (0.4, c)))
        assert law.continuous_weight() == pytest.approx(0.8)
        assert law.continuous_part() == FiniteMixture(((0.5, g), (0.5, c)))
        assert FiniteMixture(((0.5, Rademacher()), (0.5, PointMass(1.0)))).continuous_part() is None
        both = FiniteMixture(((0.5, g), (0.5, c)))
        assert both.continuous_part() is both

    def test_zero_weight_component_has_no_atoms(self):
        law = FiniteMixture(((1.0, Gaussian(1.0)), (0.0, PointMass(1.0))))
        assert not law.has_discrete_part and law.discrete_atoms() == ()
        assert law.continuous_weight() == 1.0 and law.continuous_part() is law
        # ten weights 0.1 add to 0.9999999999999999; the law is still all continuous
        tenths = FiniteMixture(tuple((0.1, Gaussian(1.0 + j)) for j in range(10)))
        assert tenths.continuous_weight() == 1.0 and tenths.continuous_part() is tenths
        law = FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(1.0)), (0.0, PointMass(3.0))))
        assert law.discrete_atoms() == ((-1.0, 0.25), (1.0, 0.25))


class TestSampling:
    def test_draws_are_fresh_and_writable(self):
        for d in ALL_LAWS:
            a = d.sample(SeededRng(2).stream(0), 50)
            b = d.sample(SeededRng(2).stream(0), 50)
            assert a.flags.writeable and not np.shares_memory(a, b)
            a[:] = 0.0
            assert np.array_equal(b, d.sample(SeededRng(2).stream(0), 50))

    def test_pointmass_constant(self):
        gen = SeededRng(1).stream(0)
        assert np.all(PointMass(3.0).sample(gen, 100) == 3.0)

    def test_gaussian_mean_band(self):
        n = 100_000
        xs = Gaussian(1.0).sample(SeededRng(5).stream(0), n)
        assert abs(xs.mean()) <= 4.0 / math.sqrt(n)
        assert abs(xs.var() - 1.0) <= 0.05

    def test_rademacher_support(self):
        xs = Rademacher().sample(SeededRng(5).stream(1), 1000)
        assert set(np.unique(xs)) == {-1.0, 1.0}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([Rademacher(), PointMass(-0.0), PointMass(0.0), PointMass(0.25),
                            PointMass(1e308)]),
           st.sampled_from([0, 1, 2, 16_383, 16_384, 100_000]),
           st.integers(0, 2 ** 64 - 1))
    def test_atom_indices_replay_sample(self, d, size, seed):
        g1, g2 = SeededRng(seed).stream(3), SeededRng(seed).stream(3)
        locs, idx = d.draw(g1, size)
        xs = d.sample(g2, size)
        assert locs.dtype == xs.dtype == np.float64 and idx.shape == (size,)
        assert locs[idx].tobytes() == xs.tobytes()
        assert g1.random() == g2.random()

    def test_atom_indices_replay_the_direct_samplers(self):
        # gen.choice for Rademacher, a constant array for a point mass
        for size in (0, 1, 7, 1_000, 100_000):
            g1, g2 = SeededRng(4).stream(size), SeededRng(4).stream(size)
            locs, idx = Rademacher().draw(g1, size)
            assert locs[idx].tobytes() == g2.choice(np.array([-1.0, 1.0]), size).tobytes()
            assert g1.random() == g2.random()
            for a in (-0.0, 0.25, 1e308):
                locs, idx = PointMass(a).draw(g1, size)
                assert locs[idx].tobytes() == np.full(size, a).tobytes()
            assert g1.random() == g2.random()

    def test_continuous_laws_draw_no_atoms(self):
        for d in ALL_LAWS:
            if d.continuous_weight() > 0:
                g1, g2 = SeededRng(6).stream(0), SeededRng(6).stream(0)
                xs, idx = d.draw(g1, 10)
                assert idx is None
                assert xs.tobytes() == d.sample(g2, 10).tobytes()

    def test_no_generator_is_named(self):
        for d in ALL_LAWS:
            for draw in (d.draw, d.sample):
                with pytest.raises(ValueError, match="^mc evaluation needs a generator$"):
                    draw(None, 3)

    def test_seed_reproducibility_and_stream_independence(self):
        a = Gaussian(1.0).sample(SeededRng(9).stream(0), 10)
        b = Gaussian(1.0).sample(SeededRng(9).stream(0), 10)
        c = Gaussian(1.0).sample(SeededRng(9).stream(1), 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestAveragedModulation:
    # the averaged modulation E M_{sqrt(t) xi} is the one-step mean walk

    def test_t_zero_identity(self):
        u = make_vector([(0.0, 0.6), (2.0, 0.8)])
        assert expected_walk_apply(Gaussian(1.0), 0.0, 1, u) == u

    def test_gaussian_factor(self):
        D, t, p = 2.0, 0.5, 3.0
        out = expected_walk_apply(Gaussian(D), t, 1, unit_atom(p))
        assert out.amplitude(p) == pytest.approx(math.exp(-0.5 * t * D * p * p))

    def test_contraction(self):
        gen = np.random.default_rng(3)
        for d in ALL_LAWS:
            u = make_vector([(0.5, 1.0), (1.5, 1j)])
            t = float(gen.uniform(0, 2))
            assert norm(expected_walk_apply(d, t, 1, u)) <= norm(u) + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expected_walk_apply(Gaussian(1.0), -0.1, 1, unit_atom(0))

    def test_monte_carlo_oracle(self):
        # mean of single modulation draws reproduces the chi multiplier
        d, t, p = Uniform(-1.0, 2.0), 0.7, 1.5
        n = 100_000
        xs = d.sample(SeededRng(11).stream(0), n)
        draws = np.exp(1j * math.sqrt(t) * xs * p)
        expected = expected_walk_apply(d, t, 1, unit_atom(p)).amplitude(p)
        assert abs(draws.mean() - expected) <= 4.0 / math.sqrt(n)

    def test_multiplier_semigroup_in_t(self):
        for fam in (ConvolutionFamily("gaussian"), ConvolutionFamily("cauchy")):
            for s, t in [(0.1, 0.4), (1.0, 2.0)]:
                for p in (0.5, 1.0, 3.0):
                    a = fam.at(s).chi(p) * fam.at(t).chi(p)
                    b = fam.at(s + t).chi(p)
                    assert abs(a - b) <= 1e-12


class TestRandomWalk:
    def test_single_pointmass_step(self):
        u = make_vector([(1.0, 0.6), (2.0, 0.8)])
        t, a = 2.0, 1.3
        out = random_walk_apply(PointMass(a), t, 1, SeededRng(1).stream(0), u)
        assert out == apply_mod(math.sqrt(t) * a, u)

    def test_unitary_for_any_draw(self):
        gen = SeededRng(2).stream(0)
        u = make_vector([(0.0, 0.5), (1.0, 0.5), (3.0, 2 ** -0.5)])
        for d in ALL_LAWS:
            out = random_walk_apply(d, 1.0, 20, gen, u)
            assert norm(out) == pytest.approx(norm(u), rel=1e-12)

    def test_phase_matches_sample_sum(self):
        d, t, n, p = Gaussian(1.0), 2.0, 50, 1.5
        out = random_walk_apply(d, t, n, SeededRng(7).stream(0), unit_atom(p))
        xs = d.sample(SeededRng(7).stream(0), n)
        expected = np.exp(1j * p * math.sqrt(t / n) * xs.sum())
        assert out.amplitude(p) == pytest.approx(complex(expected))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="^need at least one step: 0$"):
            random_walk_apply(Gaussian(1.0), 1.0, 0, SeededRng(1).stream(0), unit_atom(0.0))


class TestDrawsPastTheFloatRange:
    """A draw or a walk's sum past the float range is +-inf, with no RuntimeWarning."""

    def test_cauchy_draws(self):
        xs = Cauchy(1e308).sample(SeededRng(1).stream(0), 100)
        with np.errstate(over="ignore"):
            want = 1e308 * SeededRng(1).stream(0).standard_cauchy(100)
        assert np.array_equal(xs, want)
        assert np.isposinf(xs).any() and np.isneginf(xs).any()
        mixture = FiniteMixture(((0.5, Cauchy(1e308)), (0.5, Gaussian(1.0))))
        assert np.isinf(mixture.sample(SeededRng(1).stream(0), 100)).any()

    @pytest.mark.parametrize("d,seed,message", [
        (Cauchy(1e308), 0, "non-finite modulation: inf"),
        # draws of both signs past the float range: their sum is NaN
        (Cauchy(1e308), 2, "non-finite modulation: nan"),
        (FiniteMixture(((0.5, Cauchy(1e308)), (0.5, Gaussian(1.0)))), 0,
         "non-finite modulation: -inf"),
        # finite draws whose sum overflows
        (Uniform(1e308, 1.5e308), 0, "non-finite modulation: inf"),
        (Uniform(-1.5e308, -1e308), 0, "non-finite modulation: -inf"),
    ], ids=["cauchy", "cauchy-both-signs", "mixture", "uniform", "uniform-negative"])
    def test_random_walk_names_the_modulation(self, d, seed, message):
        with pytest.raises(ValueError) as err:
            random_walk_apply(d, 1.0, 10, SeededRng(seed).stream(0), unit_atom(1.0))
        assert str(err.value) == message


class TestExpectedWalk:
    def test_gaussian_fixed_point(self):
        # algebraic identity (e^{-tDp^2/2n})^n = e^{-tDp^2/2}; float-exact
        # up to the last-ulp rounding of sqrt(t/n)*p
        u = make_vector([(0.5, 0.6), (2.0, 0.8)])
        for n in (1, 7, 100, 9999):
            out = expected_walk_apply(Gaussian(1.5), 0.9, n, u)
            assert out.frequencies == u.frequencies
            for a, b in zip(out, u):
                assert abs(a.c - math.exp(-0.5 * 0.9 * 1.5 * b.p * b.p) * b.c) <= 1e-14

    def test_monte_carlo_oracle(self):
        d, t, n, p = Rademacher(), 1.0, 4, 2.0
        runs = 100_000
        gen = SeededRng(13).stream(0)
        xs = d.sample(gen, (runs * n)).reshape(runs, n)
        draws = np.exp(1j * p * math.sqrt(t / n) * xs.sum(axis=1))
        expected = expected_walk_apply(d, t, n, unit_atom(p)).amplitude(p)
        assert abs(draws.mean() - expected) <= 4.0 / math.sqrt(runs)


class TestChernoff:
    def test_limit_trivial_cases(self):
        # the limit multiplier e^{-tDp^2/2} is 1 at t = 0 and at p = 0, and
        # Gaussian(D) steps reach it at every n
        u = make_vector([(0.0, 0.6), (2.0, 0.8)])
        for n in (1, 7):
            assert expected_walk_apply(Gaussian(1.0), 0.0, n, u) == u
            out = expected_walk_apply(Gaussian(1.0), 5.0, n, u)
            assert out.amplitude(0.0) == 0.6 + 0j
            assert abs(out.amplitude(2.0) - math.exp(-0.5 * 5.0 * 1.0 * 2.0 * 2.0) * 0.8) <= 1e-14

    def test_rademacher_error_against_high_precision_oracle(self):
        # direct evaluation at 50 digits of |cos(x/sqrt(n))^n - e^{-x^2/2}|
        n, x = 1000, 2.0
        with mpmath.workdps(50):
            oracle = abs(
                mpmath.cos(x / mpmath.sqrt(n)) ** n - mpmath.e ** (-x * x / 2)
            )
        err = chernoff_error(Rademacher(), 1.0, n, [x])
        assert err <= 5e-4
        assert abs(err - float(oracle)) <= 1e-12

    def test_gaussian_error_vanishes(self):
        for n in (1, 10, 1000, 100_000):
            assert chernoff_error(Gaussian(2.0), 1.0, n, [0.5, 1.0, 2.0]) <= 1e-14

    def test_halving_rate(self):
        probes = [0.5, 1.0, 2.0, 3.0]
        for n in (500, 1000, 2000):
            r = chernoff_error(Rademacher(), 1.0, n, probes) / chernoff_error(
                Rademacher(), 1.0, 2 * n, probes
            )
            assert 1.8 <= r <= 2.2

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            chernoff_error(Cauchy(1.0), 1.0, 100, [1.0])

    def test_mixture_with_a_cauchy_part_has_infinite_variance(self):
        d = FiniteMixture(((0.5, Cauchy(1.0)), (0.5, Gaussian(1.0))))
        assert math.isnan(d.mean) and d.variance == math.inf
        with pytest.raises(ValueError, match="^" + re.escape(
                f"law must have positive finite variance, got inf for {d!r}") + "$"):
            chernoff_error(d, 1.0, 100, [1.0])

    def test_far_probe_and_zero_time(self):
        # e^{-x^2/2} underflows to 0 at x = 1e200 without a warning
        want = math.cos(math.sqrt(1.0 / 10) * 1e200) ** 10
        assert abs(chernoff_error(Rademacher(), 1.0, 10, [1e200]) - want) <= 1e-15
        assert chernoff_error(Rademacher(), 0.0, 10, [1.0, 1e200]) == 0.0

    def test_uncentered_law_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            chernoff_error(Uniform(0.0, 1.0), 1.0, 100, [1.0])

    @pytest.mark.parametrize("n", [10**8, 10**10])
    def test_rademacher_error_at_large_n(self, n):
        # cos(y) = 1 - 2 sin^2(y/2), so cos(x/sqrt(n))^n = exp(n log1p(-2 sin^2(x/(2 sqrt(n)))))
        probes = [0.5, 1.0, 2.0, 3.0]
        x = np.array(probes)
        power = np.exp(n * np.log1p(-2.0 * np.sin(x / (2.0 * math.sqrt(n))) ** 2))
        accurate = float(np.abs(power - np.exp(-0.5 * x * x)).max())
        assert abs(chernoff_error(Rademacher(), 1.0, n, probes) / accurate - 1.0) <= 0.01


class TestFamiliesAndJson:
    def test_family_at_zero_is_point_mass(self):
        for kind in ("gaussian", "cauchy"):
            assert ConvolutionFamily(kind).at(0.0) == PointMass(0.0)

    def test_family_member_kinds(self):
        assert ConvolutionFamily("gaussian").at(0.5) == Gaussian(0.5)
        assert ConvolutionFamily("cauchy").at(0.5) == Cauchy(0.5)
        for kind in ("gaussian", "cauchy"):
            for t in (-1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="family parameter must be non-negative"):
                    ConvolutionFamily(kind).at(t)
        with pytest.raises(ValueError, match="non-negative and finite: inf"):
            ConvolutionFamily("gaussian").at(math.inf)

    def test_convolve_closed_forms(self):
        assert convolve(Gaussian(1.0), Gaussian(2.0)) == Gaussian(3.0)
        assert convolve(Cauchy(1.0), Cauchy(0.5)) == Cauchy(1.5)
        assert convolve(PointMass(0.0), Rademacher()) == Rademacher()
        assert convolve(PointMass(0.5), PointMass(-2.0)) == PointMass(-1.5)
        with pytest.raises(ValueError):
            convolve(Gaussian(1.0), Cauchy(1.0))

    @pytest.mark.parametrize("law, name", [(Gaussian, "D"), (Cauchy, "gamma")])
    def test_convolve_overflow_names_both_laws(self, law, name):
        big = law(1e308)
        message = re.escape(f"{big!r} + {big!r}: the {name} parameters add past the largest float")
        with pytest.raises(ValueError, match=f"^{message}$"):
            convolve(big, big)
        assert convolve(law(8e307), law(8e307)) == law(1.6e308)

    def test_json_round_trip(self):
        for d in ALL_LAWS:
            assert distribution_from_json(d.to_json()) == d

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            distribution_from_json({"kind": "levy"})

        class Spare(Gaussian):  # a law outside the kind table has no JSON form
            pass

        with pytest.raises(NotImplementedError, match="no JSON kind for Spare"):
            Spare(1.0).to_json()
