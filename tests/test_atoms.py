import math

import numpy as np
import pytest

from atomdyn.atoms import (
    AtomicVector,
    add,
    deserialize,
    inner,
    make_vector,
    norm,
    scale,
    serialize,
    unit_atom,
)


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

    def test_additive_cancellation(self):
        u = unit_atom(0)
        assert add(u, scale(-1, u)) == AtomicVector()

    def test_scale_norm(self):
        u = add(unit_atom(1), unit_atom(2))
        assert norm(scale(2, u)) == pytest.approx(2 * math.sqrt(2))

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
