import copy
import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomdyn import atoms
from atomdyn.atoms import (
    Atom,
    AtomicVector,
    add,
    cmul,
    deserialize,
    inner,
    make_vector,
    match,
    merge,
    norm,
    scale,
    serialize,
    unit_atom,
)
from atomdyn.channels import PureState


def random_vector(gen, max_atoms=8, grid=None):
    k = int(gen.integers(1, max_atoms + 1))
    if grid is not None:
        ps = gen.choice(grid, size=k, replace=False)
    else:
        ps = gen.uniform(-10, 10, k)
    cs = gen.normal(size=k) + 1j * gen.normal(size=k)
    return make_vector(list(zip(ps, cs)))


class TestMakeVector:
    def test_cancellation_gives_empty(self):
        assert make_vector([(0, 1), (0, -1)]) == AtomicVector()

    def test_sorting(self):
        v = make_vector([(1, 0.5), (0, 0.5)])
        assert v.frequencies == (0.0, 1.0)

    def test_merge(self):
        v = make_vector([(2, 1j), (2, 1j)])
        assert len(v) == 1
        assert v.amplitude(2.0) == 2j

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_vector([(math.nan, 1.0)])
        with pytest.raises(ValueError):
            make_vector([(0.0, complex(math.inf, 0))])

    def test_idempotent(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            v = random_vector(gen)
            again = make_vector([(a.p, a.c) for a in v])
            assert again == v


class TestInner:
    def test_unit_atoms_orthonormal(self):
        assert inner(unit_atom(0), unit_atom(0)) == 1
        assert inner(unit_atom(0), unit_atom(1)) == 0

    def test_conjugate_linear_first_argument(self):
        u = make_vector([(2, 1 + 1j)])
        assert inner(u, unit_atom(2)) == 1 - 1j

    def test_conjugate_symmetry_and_cauchy_schwarz(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            u = random_vector(gen)
            v = random_vector(gen)
            lhs = inner(u, v)
            rhs = inner(v, u).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            assert abs(lhs) <= norm(u) * norm(v) * (1 + 1e-12)

    def test_dense_grid_oracle(self):
        # brute force: embed integer-grid vectors densely and take the dot
        gen = np.random.default_rng(13)
        grid = np.arange(-10.0, 11.0)
        for _ in range(100):
            u = random_vector(gen, grid=grid)
            v = random_vector(gen, grid=grid)
            du = np.zeros(len(grid), dtype=complex)
            dv = np.zeros(len(grid), dtype=complex)
            for a in u:
                du[int(a.p) + 10] = a.c
            for a in v:
                dv[int(a.p) + 10] = a.c
            assert inner(u, v) == pytest.approx(np.vdot(du, dv), abs=1e-12)


class TestVectorSpace:
    def test_unit_norm(self):
        assert norm(unit_atom(0)) == 1.0

    def test_equality_with_another_type(self):
        u = unit_atom(0)
        assert u.__eq__(3) is NotImplemented
        assert (u == 3) is False and u != 3

    def test_additive_cancellation(self):
        u = unit_atom(0)
        assert add(u, scale(-1, u)) == AtomicVector()

    def test_scale_norm(self):
        u = add(unit_atom(1), unit_atom(2))
        assert norm(scale(2, u)) == pytest.approx(2 * math.sqrt(2))

    def test_norm_of_tiny_amplitudes(self):
        # |c|^2 underflows to 0.0 here; the norm is taken again rescaled
        v = make_vector([(0.0, 2.5031860691632185e-201j)])
        assert norm(v) == 2.5031860691632185e-201
        assert norm(make_vector([(0.0, 3e-170), (1.0, 4e-170j)])) == 5e-170
        assert norm(make_vector([(0.0, 5e-324)])) == 5e-324
        s = PureState((1.0 / norm(v)) * v)
        assert s.vector == make_vector([(0.0, 1j)])

    def test_norm_of_huge_amplitudes(self):
        # |c|^2 overflows to inf here; the norm is taken again rescaled, with
        # no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(make_vector([(0.0, 1e200), (1.0, 1e200j)])) == math.hypot(1e200, 1e200)
            assert norm(make_vector([(0.0, 1e200)])) == 1e200
            # each square is finite but their sum overflows
            many = [(float(j), 1.5e153) for j in range(100)]
            assert norm(make_vector(many)) == 1.5e153 * math.sqrt(100.0)
            # finite sums above the threshold keep the plain sum's bits
            for pairs in ([(0.0, 3e153), (1.0, 4e153j)], [(0.0, 1e154), (2.0, 1e-300)]):
                assert bits(norm(make_vector(pairs))) == bits(ref_norm(ref_make(pairs)))

    def test_norm_squared_is_self_inner(self):
        gen = np.random.default_rng(17)
        for _ in range(50):
            u = random_vector(gen)
            assert norm(u) ** 2 == pytest.approx(inner(u, u).real, rel=1e-12)


class TestSerialization:
    def test_schema_instance(self):
        assert serialize(unit_atom(0)) == '{"atoms": [{"p": 0.0, "re": 1.0, "im": 0.0}]}'

    def test_round_trip(self):
        gen = np.random.default_rng(19)
        for _ in range(50):
            u = random_vector(gen)
            assert deserialize(serialize(u)) == u

    def test_duplicate_frequencies_merge_on_load(self):
        doc = '{"atoms": [{"p": 1.0, "re": 1.0, "im": 0.0}, {"p": 1.0, "re": 2.0, "im": 0.0}]}'
        v = deserialize(doc)
        assert len(v) == 1
        assert v.amplitude(1.0) == 3.0 + 0j

    def test_malformed_reports_position(self):
        with pytest.raises(ValueError, match="position"):
            deserialize('{"atoms": [')

    def test_schema_violations(self):
        with pytest.raises(ValueError):
            deserialize("[1, 2]")
        with pytest.raises(ValueError):
            deserialize('{"atoms": [{"p": 0.0}]}')

    def test_atoms_must_be_a_list(self):
        with pytest.raises(ValueError, match="^'atoms' must be a list$"):
            deserialize('{"atoms": 3}')

    def test_entries_must_hold_numbers(self):
        doc = '{"atoms": [{"p": 0.0, "re": 1.0, "im": 0.0}, {"p": "x", "re": 1.0, "im": 0.0}]}'
        with pytest.raises(ValueError, match="^'atoms' entry #1 must hold numbers: "
                                             "could not convert string to float: 'x'$"):
            deserialize(doc)


# ---------------------------------------------------------------------------
# Bit-equality with the dict-and-Python-complex rules
#
# A vector is stored as arrays; the references below are the scalar rules it
# must reproduce bit for bit: a dict merge in input order, Python complex
# products, sums added left to right from 0j.


def ref_make(pairs):
    acc = {}
    for p, c in pairs:
        p, c = float(p), complex(c)
        acc[p] = acc.get(p, 0j) + c
    return [(p, acc[p]) for p in sorted(acc) if acc[p] != 0]


def ref_inner(u, v):
    vmap = dict(v)
    total = 0j
    for p, c in u:
        cv = vmap.get(p)
        if cv is not None:
            total += c.conjugate() * cv
    return total


def ref_norm(u):
    total = 0.0
    for _, c in u:
        total += abs(c) ** 2
    if u and total < sys.float_info.min:
        # the squares underflow: add them again relative to the largest |c|
        top = max(abs(c) for _, c in u)
        total = 0.0
        for _, c in u:
            total += (abs(c) / top) ** 2
        return top * math.sqrt(total)
    return math.sqrt(total)


def bits(x):
    """Exact bits of a float or complex, telling -0.0 from 0.0."""
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


def vector_bits(atoms):
    return [(bits(p), bits(c)) for p, c in atoms]


SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 0.5, 1.0, -1.0, 1e16, 1e16 + 2.0]
frequencies = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-16, 16).map(lambda j: j / 8.0),
    st.floats(-1e3, 1e3, allow_nan=False),
)
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.7]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
amplitudes = st.builds(complex, parts, parts)


@st.composite
def pair_lists(draw, max_size=12):
    """Pairs with repeated frequencies, signed zeros and exact cancellations."""
    pairs = draw(st.lists(st.tuples(frequencies, amplitudes), max_size=max_size))
    for i in draw(st.lists(st.integers(0, max(len(pairs) - 1, 0)), max_size=4)):
        if pairs:
            p, c = pairs[i]
            flip = draw(st.booleans())
            pairs.append((-p if p == 0 and flip else p, -c if draw(st.booleans()) else c))
    return pairs


class TestArrayRules:
    @settings(deadline=None)
    @given(pair_lists())
    def test_make_vector(self, pairs):
        v = make_vector(pairs)
        assert vector_bits((a.p, a.c) for a in v) == vector_bits(ref_make(pairs))
        assert all(type(a.p) is float and type(a.c) is complex for a in v)

    def test_make_vector_keeps_first_zero_key(self):
        assert bits(make_vector([(-0.0, 1.0), (0.0, 2.0)]).freqs[0]) == bits(-0.0)
        assert bits(make_vector([(0.0, 1.0), (-0.0, 2.0)]).freqs[0]) == bits(0.0)
        assert make_vector([(-0.0, 1.0), (0.0, -1.0), (1.0, 2.0)]).frequencies == (1.0,)

    @settings(deadline=None)
    @given(pair_lists(), pair_lists())
    def test_inner_norm_amplitude(self, pu, pv):
        u, v = make_vector(pu), make_vector(pv)
        ru, rv = ref_make(pu), ref_make(pv)
        assert bits(inner(u, v)) == bits(ref_inner(ru, rv))
        assert bits(inner(v, u)) == bits(ref_inner(rv, ru))
        assert bits(norm(u)) == bits(ref_norm(ru))
        for p in [p for p, _ in pu] + [0.0, 1e16]:
            want = next((c for q, c in ru if q == p), 0j)
            assert bits(u.amplitude(p)) == bits(want)

    @settings(deadline=None)
    @given(pair_lists(), pair_lists(), st.one_of(
        st.sampled_from([-1, 2, 0.5, 1j, 0, -0.0]), amplitudes))
    def test_add_and_scale(self, pu, pv, alpha):
        u, v = make_vector(pu), make_vector(pv)
        ru, rv = ref_make(pu), ref_make(pv)
        assert vector_bits((a.p, a.c) for a in add(u, v)) == vector_bits(ref_make(ru + rv))
        assert vector_bits((a.p, a.c) for a in scale(alpha, u)) == vector_bits(
            ref_make([(p, alpha * c) for p, c in ru]))

    @settings(deadline=None)
    @given(pair_lists(), pair_lists())
    @example(pu=[(0.0, 2.225073858507e-311j)], pv=[])  # 1 / norm overflows
    def test_equality_and_hash(self, pu, pv):
        u, v = make_vector(pu), make_vector(pv)
        ru = tuple(Atom(p, c) for p, c in ref_make(pu))
        rv = tuple(Atom(p, c) for p, c in ref_make(pv))
        # the rules of a frozen dataclass over the atom tuple
        assert (u == v) == (ru == rv)
        assert hash(u) == hash((ru,))
        assert u.atoms == ru
        assert u == make_vector(reversed(ref_make(pu)))
        if not len(u) or norm(u) <= 1.0 / sys.float_info.max:
            return  # 1 / norm(u) overflows
        w = (1.0 / norm(u)) * u
        if abs(norm(w) - 1.0) <= 1e-12:
            s = PureState(w)
            assert s == PureState(make_vector((a.p, a.c) for a in reversed(w.atoms)))
            assert hash(s) == hash((w,))
            assert {s: 1}[PureState(w)] == 1

    def test_signed_zero_vectors_are_equal(self):
        a, b = make_vector([(-0.0, 1.0)]), make_vector([(0.0, 1.0)])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "AtomicVector(atoms=(Atom(p=-0.0, c=(1+0j)),))"

    def test_immutable(self):
        v = make_vector([(1.0, 2.0)])
        with pytest.raises(AttributeError):
            v.freqs = np.array([0.0])
        with pytest.raises(ValueError):
            v.amps[0] = 0j
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.deepcopy(v) == v


def spread_values(n, dtype, seed):
    """n values over many binades, so that every change of summation order shows."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(n) * np.exp(gen.uniform(-20.0, 20.0, n))
    if dtype is complex:
        a = a + 1j * gen.standard_normal(n) * np.exp(gen.uniform(-20.0, 20.0, n))
    return a


def assert_sums_run_left_to_right(n, dtype, seed, groups):
    """inner and norm over n atoms, and make_vector's merge of n pairs at
    ``groups`` frequencies, are the scalar rules' running sums, bit for bit."""
    ps = np.arange(float(n)).tolist()
    pu = list(zip(ps, spread_values(n, dtype, seed).tolist()))
    pv = list(zip(ps, spread_values(n, dtype, seed + 1).tolist()))
    u, v = make_vector(pu), make_vector(pv)
    # sorted, distinct frequencies and no zero amplitude: ref_make of pu
    ru, rv = [(p, 0j + c) for p, c in pu], [(p, 0j + c) for p, c in pv]
    assert bits(norm(u)) == bits(ref_norm(ru))
    assert bits(inner(u, v)) == bits(ref_inner(ru, rv))
    at = np.random.default_rng(seed).integers(0, groups, n).astype(float).tolist()
    pw = list(zip(at, [c for _, c in pu]))
    assert vector_bits((a.p, a.c) for a in make_vector(pw)) == vector_bits(ref_make(pw))


class TestPairwiseSum:
    """Sums over many atoms add left to right, never in numpy's pairwise tree.

    np.add.reduce keeps eight interleaved partial sums from 8 values on and
    splits a run above 128 in halves, so amplitudes spread over many
    binades tell its order from the running sums of the scalar rules.  The
    names date from a copy of that tree, which the library no longer holds:
    "one chunk" is now a sum over all n atoms (``inner``, ``norm``), "small
    ones" the sums of the groups of equal frequencies that ``make_vector``
    merges.
    """

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", list(range(1, 301)) + [
        8191, 8192, 8193, 16376, 16392, 636_619])
    def test_matches_numpy_in_one_chunk_and_in_small_ones(self, n, dtype):
        assert_sums_run_left_to_right(n, dtype, n, 1 + n // 20)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40_960), st.sampled_from([float, complex]),
           st.integers(0, 2**32 - 2), st.integers(1, 300))
    @example(n=16_392, dtype=complex, seed=0, groups=1)
    def test_any_chunks(self, n, dtype, seed, groups):
        assert_sums_run_left_to_right(n, dtype, seed, groups)


# signed zeros, the subnormal and normal ends, the float ends and infinities
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         2.225073858507201e-308, 1.0, -1.0, sys.float_info.max, -sys.float_info.max,
         math.inf, -math.inf]
keys = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False),
                 st.integers(-8, 8).map(lambda j: j / 4.0))


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


class TestMatch:
    """``match`` finds a frequency as a dict keyed by Python floats finds it."""

    @settings(deadline=None)
    @given(st.lists(keys, min_size=1, max_size=10), st.lists(keys, max_size=6),
           st.integers(1, 4))
    @example(fs=[0.0], extra=[-0.0], m=2)
    @example(fs=[-0.0, 5e-324], extra=[0.0, -5e-324], m=1)
    @example(fs=[math.inf], extra=[-math.inf], m=3)
    def test_matches_a_dict_lookup(self, fs, extra, m):
        f = np.array(sorted(set(fs)))  # sorted and distinct: -0.0 and 0.0 are one key
        where = {x: k for k, x in enumerate(f.tolist())}
        # each frequency and its float neighbours one ulp off, NaN, the points
        # past both ends and a few more
        probes = [y for x in f.tolist() for y in neighbours(x)] + extra + [
            math.nan, -math.nan, neighbours(f[0])[0], neighbours(f[-1])[2]]
        q = np.array(probes)
        gen = np.random.default_rng(len(probes))
        for qq in (q, np.stack([gen.permutation(q) for _ in range(m)])):
            i, hit = match(f, qq)
            assert i.shape == hit.shape == qq.shape
            assert np.all((0 <= i) & (i < len(f)))
            want = [where.get(x) for x in qq.ravel().tolist()]
            assert hit.ravel().tolist() == [k is not None for k in want]
            assert i.ravel()[hit.ravel()].tolist() == [k for k in want if k is not None]


# ---------------------------------------------------------------------------
# The merge of sorted runs, sums on one support, cmul's two buffers and the
# kept norm: each bit for bit against the scalar rules above


@st.composite
def sorted_runs(draw):
    """1-8 runs of pairs, each sorted by frequency, as a sum or a table of rows gives them.

    Runs share keys, hold -0.0 and 0.0, and may hold equal neighbours (the
    atoms that a shift lands on one frequency); a pair may cancel one before it.
    """
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        pairs = draw(st.lists(st.tuples(frequencies, amplitudes), max_size=8))
        for i in draw(st.lists(st.integers(0, 7), max_size=2)):
            if pairs:  # an equal neighbour, the same key or its signed zero twin
                p, c = pairs[i % len(pairs)]
                pairs.append((-p if p == 0 and draw(st.booleans()) else p, c))
        if runs and runs[0] and draw(st.booleans()):
            p, c = runs[0][0]
            pairs.append((p, -c))  # cancels exactly
        runs.append(sorted(pairs, key=lambda pc: pc[0]))
    return runs


class TestSortedRuns:
    @settings(deadline=None)
    @given(sorted_runs(), st.sampled_from([1, atoms._RUNS, 10**9]))
    @example(runs=[[(-0.0, 1 + 0j), (1.0, 2j)], [(0.0, 1 + 0j), (1.0, -2j)]], rule=atoms._RUNS)
    @example(runs=[[(0.0, 1j)], [(-0.0, -1j)], [(1e16, 0.5 + 0j), (1e16, -0.5 + 0j)]], rule=1)
    def test_merge_on_both_sides_of_the_runs_rule(self, runs, rule):
        """merge of the runs' concatenation is the dict merge, whichever sort the
        descents choose: rule 1 sends every unsorted input to the default sort,
        10**9 every one to the stable sort, and atoms._RUNS is the library's rule."""
        pairs = [pc for run in runs for pc in run]
        ps = np.array([p for p, _ in pairs], dtype=float)
        cs = np.array([c for _, c in pairs], dtype=complex)
        kept, atoms._RUNS = atoms._RUNS, rule
        try:
            v = merge(ps, cs)
        finally:
            atoms._RUNS = kept
        assert vector_bits((a.p, a.c) for a in v) == vector_bits(ref_make(pairs))

    @settings(deadline=None)
    @given(pair_lists(), st.lists(amplitudes, min_size=12, max_size=12), st.booleans())
    def test_add_on_one_support(self, pu, cs, flip):
        """On equal supports add is the merge of u's atoms and then v's, and u's
        key wins where one side has -0.0 and the other 0.0."""
        u = make_vector(pu)
        pv = [(-p if flip and p == 0 else p, c) for p, c in zip(u.frequencies, cs)]
        v = make_vector(pv)
        ru, rv = ref_make(pu), ref_make(pv)
        assert vector_bits((a.p, a.c) for a in add(u, v)) == vector_bits(ref_make(ru + rv))
        assert vector_bits((a.p, a.c) for a in add(v, u)) == vector_bits(ref_make(rv + ru))

    @settings(deadline=None)
    @given(pair_lists(), pair_lists())
    def test_add_on_two_supports_and_difference(self, pu, pv):
        u, v = make_vector(pu), make_vector(pv)
        ru, rv = ref_make(pu), ref_make(pv)
        assert vector_bits((a.p, a.c) for a in add(u, v)) == vector_bits(ref_make(ru + rv))
        minus_v = ref_make([(p, complex(-1) * c) for p, c in rv])
        assert vector_bits((a.p, a.c) for a in u - v) == vector_bits(ref_make(ru + minus_v))
        assert u - u == AtomicVector()


def complex_bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


def spread_complex(gen, shape):
    """Complex values over many binades, with signed zeros and subnormals among them."""
    a = spread_values(int(np.prod(shape)), complex, int(gen.integers(2**32))).reshape(shape)
    special = np.array([0.0, -0.0, 5e-324, -1.0, 1e-310])
    mask = gen.random(shape) < 0.1
    a.real[mask] = gen.choice(special, np.count_nonzero(mask))
    mask = gen.random(shape) < 0.1
    a.imag[mask] = gen.choice(special, np.count_nonzero(mask))
    return a


class TestCmul:
    """cmul rounds as Python's complex product, operand by operand."""

    @pytest.mark.parametrize("n", [0, 1, 16_383, 16_384, 100_000])
    def test_arrays_scalars_and_reals(self, n):
        gen = np.random.default_rng(n)
        x, y = spread_complex(gen, (n,)), spread_complex(gen, (n,))
        r = spread_values(n, float, n + 7)
        alpha = complex(-0.7, 1e-3)
        xs, ys, rs = x.tolist(), y.tolist(), r.tolist()
        cases = [
            (cmul(x, y), [a * b for a, b in zip(xs, ys)]),
            (cmul(alpha, y), [alpha * b for b in ys]),
            # a real operand is complex with a zero imaginary part
            (cmul(x, r), [a * complex(b) for a, b in zip(xs, rs)]),
            (cmul(r, x), [complex(b) * a for a, b in zip(xs, rs)]),
        ]
        for got, want in cases:
            assert got.shape == (n,)
            assert np.array_equal(complex_bits(got), complex_bits(want))

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 8), (5, 4000)])
    def test_column_times_table(self, n, k):
        """(n, 1) x (n, k), as apply_element weighs its table."""
        gen = np.random.default_rng(n * k)
        w, t = spread_complex(gen, (n, 1)), spread_complex(gen, (n, k))
        want = [[w[i, 0].item() * t[i, j].item() for j in range(k)] for i in range(n)]
        got = cmul(w, t)
        assert got.shape == (n, k)
        assert np.array_equal(complex_bits(got), complex_bits(want))

    def test_peak_memory_is_the_output_and_one_scratch_array(self):
        """1e5 products hold the output (16 bytes each) and one float scratch
        array (8 bytes each) at their peak: 2.4 MB (MB = 1e6 bytes)."""
        gen = np.random.default_rng(0)
        x, y = spread_complex(gen, (100_000,)), spread_complex(gen, (100_000,))
        tracemalloc.start()
        try:
            cmul(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestKeptNorm:
    def test_taken_once_per_vector(self, monkeypatch):
        calls = []
        fresh = atoms._root_sum_squares
        monkeypatch.setattr(atoms, "_root_sum_squares", lambda a: calls.append(1) or fresh(a))
        u = make_vector([(0.0, 0.6), (1.5, 0.8j), (2.0, 1e-3)])
        first = norm(u)
        assert norm(u) is first and u.norm() is first
        assert len(calls) == 1
        # another vector on the same arrays takes its own
        norm(AtomicVector(u.freqs, u.amps))
        assert len(calls) == 2

    @settings(deadline=None)
    @given(pair_lists())
    def test_equals_a_fresh_computation(self, pairs):
        u = make_vector(pairs)
        assert bits(norm(u)) == bits(ref_norm(ref_make(pairs)))
        assert bits(norm(u)) == bits(norm(u))
        assert bits(norm(u)) == bits(norm(AtomicVector(u.freqs, u.amps)))

    @pytest.mark.parametrize("taken", [False, True])
    def test_pickle_and_deepcopy(self, taken):
        u = make_vector([(-0.0, 1e-200), (0.25, 3 - 4j), (1e16, 2.2250738585e-313j)])
        if taken:
            norm(u)
        for w in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
            assert w == u and hash(w) == hash(u)
            assert bits(norm(w)) == bits(norm(u))


class TestAmplitudeOverflow:
    """A sum or a product of amplitudes past the float range raises ValueError
    naming the frequency and the amplitudes, with no RuntimeWarning."""

    U = make_vector([(0.0, 1e308), (1.0, 1j)])

    @pytest.mark.parametrize("call,message", [
        (lambda u: add(u, u),
         "(1e+308+0j) + (1e+308+0j), the amplitudes at frequency 0.0, overflows the float range"),
        # two supports: the merge
        (lambda u: add(u, make_vector([(-1.0, 1.0), (0.0, 1e308j), (0.0, 1e308)])),
         "(1e+308+0j) + (1e+308+1e+308j), the amplitudes at frequency 0.0, overflows the float "
         "range"),
        (lambda u: scale(1e10, u),
         "(10000000000+0j) * (1e+308+0j), the amplitude at frequency 0.0, is not finite"),
        (lambda u: scale(1e308 + 1e308j, make_vector([(0.0, 1e308 + 1e308j)])),
         "(1e+308+1e+308j) * (1e+308+1e+308j), the amplitude at frequency 0.0, is not finite"),
        (lambda u: scale(math.nan, u), "(nan+0j) * (1e+308+0j), the amplitude at frequency 0.0, "
         "is not finite"),
    ], ids=["add-one-support", "add-two-supports", "scale", "scale-complex", "scale-nan"])
    def test_named(self, call, message):
        with pytest.raises(ValueError) as err:
            call(self.U)
        assert str(err.value) == message

    def test_sums_and_products_in_range_pass(self):
        u = self.U
        assert u - u == AtomicVector()
        assert scale(-1, u).amps.tolist() == [-1e308 + 0j, -1j]
        assert add(u, scale(-0.5, u)).amps.tolist() == [5e307 + 0j, 0.5j]
        big = make_vector([(0.0, sys.float_info.max / 2)])
        assert add(big, big).amps.tolist() == [complex(sys.float_info.max)]
