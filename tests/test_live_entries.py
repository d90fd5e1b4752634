"""The large-vector kernels against the code they replace, bit for bit.

``apply_element`` used to carry the whole (terms x atoms) table, zeros
outside each row's [lo, hi] and in the rest of each landed run, through the
weights and the merge; ``u - v`` was ``u + (-1) v``.  Each of those is
written out here as it was, and the library must give the same bits,
compared through ``.view(np.int64)``, or the same error.  ``merge`` picks
one stable sort or two sorts by the descent count of its input, and both
must give the same bits on the tables of powers, where frequencies repeat.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomdyn import atoms
from atomdyn.algebra import (ONE, AlgebraElement, Multiplier, adjoint, apply_element,
                             apply_shift, check_shifts, check_wave, compose, indicator, wave)
from atomdyn.atoms import (AtomicVector, add, cmul, make_vector, merge, named_overflow, scale)


def zero_filled_apply_element(A, u):
    """apply_element as it was: every entry of the table, dead ones as zeros, merged."""
    if not A.rows or not len(u):
        return AtomicVector()
    n = len(A.rows)
    w, a, ia, lo, hi, h = zip(*[(w, a, 1j * a, lo, hi, s + 0.0)
                                for w, (_, a, lo, hi), s in A.rows])
    if any(h):
        check_shifts(u.freqs, float(min(h)), float(max(h)))
    wia = np.array(w + ia, dtype=complex)
    q = u.freqs - np.array(h, dtype=float)[:, None]
    waves = np.flatnonzero(wia[n:])

    def make():
        x = u.amps[None, :].repeat(n, axis=0)
        if any(h):
            landed = q[:, 1:] == q[:, :-1]
            if np.count_nonzero(landed):
                for j in np.flatnonzero(landed.any(axis=1)):
                    s = apply_shift(h[j], u)
                    x[j] = 0j
                    x[j, q[j].searchsorted(s.freqs)] = s.amps
        if len(waves):
            x[waves] = cmul(np.exp(wia[n + waves, None] * q[waves]).ravel(),
                            x[waves].ravel()).reshape(len(waves), -1)
        if max(lo) > -math.inf or min(hi) < math.inf:
            los, his = np.array((lo, hi), dtype=float)[:, :, None]
            x[~((los <= q) & (q <= his))] = 0j
        qs, ws = q.ravel(), cmul(wia[:n, None], x).ravel()
        at_zero = qs == 0
        if np.count_nonzero(at_zero):
            hits = at_zero & (ws != 0)
            total = 0j
            for key, term in zip(qs[hits].tolist(), ws[hits].tolist()):
                if total == 0:
                    qs[at_zero] = key
                total += term
        return merge(qs, ws, named=False)

    def name(p):
        for j in waves.tolist():
            check_wave(a[j], lo[j], hi[j], q[j])
        terms = [f"{w[j]!r} * {c!r}" for j in range(n) if lo[j] <= p <= hi[j]
                 for c in u.amps[q[j] == p].tolist()]
        return (f"{' + '.join(terms)}, the amplitude of A u at frequency {p!r}, overflows the "
                "float range")
    return named_overflow(make, name)


def merge_with_cutoff(runs, ps, cs):
    """merge with its descent cutoff set to runs: 1 sends every unsorted input to
    numpy's default sort and then a stable sort when a frequency repeats, and
    inf sends it to one stable sort."""
    kept, atoms._RUNS = atoms._RUNS, runs
    try:
        return merge(ps, cs, named=False)
    finally:
        atoms._RUNS = kept


def outcome(call):
    """The bits of a vector's frequencies and amplitudes, or the error raised."""
    try:
        v = call()
    except ValueError as err:
        return "ValueError", str(err)
    return v.freqs.view(np.int64).tolist(), v.amps.view(np.int64).tolist()


SUBNORMAL = 5e-324
frequencies = st.one_of(
    st.sampled_from([0.0, -0.0, SUBNORMAL, 1e-300, 1.0, -1.0, 0.5, 1e16, 1e16 + 2.0]),
    st.integers(-24, 24).map(lambda j: j / 8.0),
    st.floats(-1e3, 1e3, allow_nan=False),
)
parts = st.one_of(st.sampled_from([0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1e-310, 1.0, -0.5]),
                  st.floats(-1e3, 1e3, allow_nan=False))
amplitudes = st.builds(complex, parts, parts)
pair_lists = st.lists(st.tuples(frequencies, amplitudes), max_size=12)
# 1.0 lands 0.0 and 1e-300 on -1.0, and 1e16 + 2 on 1e16 + 1's float
shifts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e16, 2.0]),
                   st.integers(-16, 16).map(lambda j: j / 8.0),
                   st.floats(-1e3, 1e3, allow_nan=False))
windows = st.one_of(
    st.tuples(frequencies, st.floats(0, 20)).map(lambda t: (t[0], t[0] + t[1])),
    # windows that no atom of a row reaches, and windows of one point
    st.sampled_from([(1e5, 1e5 + 1.0), (-1e5, -1e5), (0.0, 0.0), (-0.0, 0.0), (2e16, 3e16)]),
)
multipliers = st.one_of(
    st.just(ONE),
    st.floats(-3, 3, allow_nan=False).map(wave),
    windows.map(lambda ends: indicator(*ends)),
    st.tuples(st.floats(-3, 3, allow_nan=False), windows).map(
        lambda t: Multiplier(1 + 0j, t[0], *t[1])),
)
term_lists = st.lists(st.tuples(amplitudes, multipliers, shifts), min_size=1, max_size=6)

grid_shifts = st.integers(-8, 8).map(lambda j: j / 8.0)
phases = st.floats(0, 2 * math.pi).map(lambda t: complex(0.5 * math.cos(t), 0.5 * math.sin(t)))
benchmark_elements = st.builds(
    lambda c1, g1, b, c2, g2, ends: AlgebraElement.of(
        [(c1, wave(b), g1), (c2, indicator(*sorted(ends)), g2)]),
    phases, grid_shifts, st.floats(0.1, 2.0), phases, grid_shifts,
    st.tuples(st.integers(-32, 32), st.integers(-32, 32)).map(lambda t: (t[0] / 8.0, t[1] / 8.0)),
)
eight_atoms = st.lists(st.integers(-32, 32), min_size=8, max_size=8, unique=True).map(
    lambda js: make_vector([(j / 8.0, complex(1.0, j / 16.0)) for j in js]))


def power_adjoint(B, power):
    P = B
    for _ in range(power - 1):
        P = compose(P, B)
    return adjoint(P)


class TestLiveEntries:
    @settings(deadline=None, max_examples=300)
    @given(pair_lists, term_lists)
    # landed rows: 0.0 and 1e-300 meet at -1.0, with a window that keeps that run
    @example([(0.0, 0.1), (1e-300, 0.7), (1e16, 1j), (1e16 + 2.0, 2.0), (-0.0, 0.5)],
             [(1.0, ONE, 1.0), (0.5j, Multiplier(1 + 0j, 1.1, -2.0, 0.0), 1.0),
              (-1.0, indicator(-1.0, 1.0), -0.0)])
    # a window that excludes the whole of its row, beside a wave on all of its row
    @example([(-0.5, 1.0), (0.25, SUBNORMAL), (3.0, -0.0 + 1j)],
             [(1.0, indicator(1e5, 1e5 + 1.0), 0.5), (1j, wave(2.0), -0.0)])
    # the zero key: -0.0 of u, 0.0 brought by a shift
    @example([(-0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
             [(1.0, ONE, -0.0), (-1.0, indicator(0.0, 0.0), 1.0), (0.5, ONE, 2.0)])
    def test_against_the_zero_filled_table(self, pairs, terms):
        A, u = AlgebraElement.of(terms), make_vector(pairs)
        assert outcome(lambda: apply_element(A, u)) == outcome(
            lambda: zero_filled_apply_element(A, u))

    @settings(deadline=None, max_examples=40)
    @given(benchmark_elements, st.integers(2, 8), eight_atoms)
    def test_power_adjoint_tables(self, B, power, u):
        A = power_adjoint(B, power)
        assert outcome(lambda: apply_element(A, u)) == outcome(
            lambda: zero_filled_apply_element(A, u))

    @pytest.mark.parametrize("A, u", [
        (AlgebraElement.of([(1e308, ONE, 0.0), (1e308, ONE, 1.0)]),
         make_vector([(0.0, 1.0), (1.0, 1.0)])),
        # the overflowing phase lies outside the window, the weight inside it
        (AlgebraElement.of([(1e308, Multiplier(1 + 0j, 10.0, -1.0, 1.0), 0.0),
                            (1e308, ONE, 0.0)]),
         make_vector([(0.0, 1.0), (1e308, 1.0)])),
        (AlgebraElement.of([(1.0, wave(10.0), 0.0)]), make_vector([(1e308, 1.0)])),
        # a landed run whose sum overflows, outside the window of its row
        (AlgebraElement.of([(1.0, indicator(5.0, 6.0), 1.0)]),
         make_vector([(0.0, 1e308), (1e-20, 1e308)])),
    ], ids=["weights", "window", "phase", "landed-run"])
    def test_errors(self, A, u):
        want = outcome(lambda: zero_filled_apply_element(A, u))
        assert want[0] == "ValueError"
        assert outcome(lambda: apply_element(A, u)) == want


@st.composite
def power_tables(draw):
    """The merge input of a power_adjoint-like table: 6 to 80 sorted rows of up to
    8 atoms of a grid, shifted by grid multiples that repeat, with dead entries
    left out, so that frequencies repeat across rows."""
    grid = draw(st.lists(st.integers(-32, 32), min_size=1, max_size=8, unique=True))
    p = np.sort(np.array(grid, dtype=float) / 8.0)
    hs = draw(st.lists(st.sampled_from([-1.0, -0.5, -0.25, -0.0, 0.0, 0.125, 0.75, 2.0]),
                       min_size=6, max_size=80))
    rows, cs = [], []
    for h in hs:
        q = p - h
        lo = draw(st.integers(0, len(q)))
        q = q[lo:lo + draw(st.integers(0, len(q)))]
        rows.append(q)
        cs.extend(draw(st.lists(amplitudes, min_size=len(q), max_size=len(q))))
    return np.concatenate(rows), np.array(cs, dtype=complex)


class TestSortChoice:
    @settings(deadline=None, max_examples=200)
    @given(power_tables())
    def test_one_sort_against_two_sorts(self, table):
        ps, cs = table
        want = outcome(lambda: merge_with_cutoff(1, ps, cs.copy()))
        assert outcome(lambda: merge_with_cutoff(math.inf, ps, cs.copy())) == want
        assert outcome(lambda: merge(ps, cs.copy(), named=False)) == want


class TestDifference:
    @settings(deadline=None, max_examples=300)
    @given(pair_lists, pair_lists, st.booleans())
    # disjoint supports
    @example([(0.0, 1.0), (1.0, SUBNORMAL)], [(0.5, -1.0), (2.0, -0.0 + 1j)], False)
    # equal supports with -0.0 against 0.0, and a difference that cancels
    @example([(-0.0, 1.0), (1.0, 1j)], [(0.0, 1.0), (1.0, 0.5)], True)
    def test_against_u_plus_minus_one_v(self, pu, pv, same):
        u = make_vector(pu)
        v = make_vector([(p, c) for (p, _), (_, c) in zip(pu, pv)]) if same else make_vector(pv)
        assert outcome(lambda: u - v) == outcome(lambda: add(u, scale(-1, v)))
        assert outcome(lambda: v - u) == outcome(lambda: add(v, scale(-1, u)))
        assert outcome(lambda: u - u) == outcome(lambda: AtomicVector())

    def test_vectors_off_the_merge(self):
        # apply_shift and apply_mod keep arrays that make_vector did not build:
        # -0.0 parts and an amplitude that rounds to zero
        u = AtomicVector([-1.0, 0.0, 2.0], [-0.0 + 1j, 1.0 - 0.0j, 0j])
        v = AtomicVector([-1.0, 0.0, 2.0], [0.0 - 0.0j, -0.0 + 2j, SUBNORMAL])
        w = AtomicVector([0.0, 3.0], [0j, -0.0 - 0.0j])
        for a, b in ((u, v), (v, u), (u, w), (w, u), (v, w)):
            assert outcome(lambda: a - b) == outcome(lambda: add(a, scale(-1, b)))

    @pytest.mark.parametrize("u, v, message", [
        (make_vector([(0.0, 1e308)]), make_vector([(0.0, -1e308)]),
         "(1e+308+0j) - (-1e+308+0j), the amplitudes at frequency 0.0, overflows the float range"),
        (make_vector([(0.0, 1e308), (1.0, 1.0)]), make_vector([(0.0, -1e308)]),
         "(1e+308+0j) - (-1e+308+0j), the amplitudes at frequency 0.0, overflows the float range"),
    ], ids=["one-support", "two-supports"])
    def test_overflow_names_a_minus_b(self, u, v, message):
        with pytest.raises(ValueError) as err:
            u - v
        assert str(err.value) == message
