"""Finite-support vectors on the real line with counting measure.

A vector is a finite set of atoms (p, c): a complex amplitude c sitting at
a real frequency p.  Two atoms interact only when their frequencies are
*bit-identical* as 64-bit floats; distinct frequencies are orthogonal.
This makes the inner product an exact finite sum and keeps shifted copies
of the same atom set perfectly aligned (p + h is bit-reproducible).
"""

from __future__ import annotations

import json
import math
import sys
from operator import attrgetter
from typing import Iterable, Tuple

import numpy as np


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields`` and sets them in its
    ``__init__`` with ``object.__setattr__``.  Two records are equal when
    they are of the same class with equal field tuples, the hash is that of
    the field tuple, and the repr is ``Name(field=value, ...)``.  Setting or
    deleting an attribute raises ``dataclasses.FrozenInstanceError``.  These
    are the rules of a frozen dataclass, made without generating code.  A
    subclass that defines its own ``__eq__`` keeps it.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        # closures over the field tuple from a C attribute getter (which gives
        # a bare value for one name): the fastest == and hash with no codegen
        names = cls._fields
        get = attrgetter(*names) if names else None
        key = get if len(names) > 1 else (lambda r: (get(r),)) if names else (lambda r: ())

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))
        cls.__hash__ = __hash__
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Atom(Record):
    """A single frequency/amplitude pair."""

    _fields = ("p", "c")

    def __init__(self, p: float, c: complex):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)


class AtomicVector:
    """Immutable finite-support vector, stored as two arrays.

    ``freqs`` holds the frequencies as sorted, pairwise distinct float64 and
    ``amps`` the complex128 amplitudes in the same order, none of them zero.
    Both are read-only and may be shared with other vectors.  Iteration and
    ``atoms`` give the atoms as ``Atom(p, c)`` values with Python float and
    complex fields.  Equality compares the atoms (-0.0 equals 0.0), and the
    hash is that of the atom tuple.

    Construct through :func:`make_vector`, which merges duplicates and
    drops zero amplitudes; the constructor trusts its arrays and makes them
    read-only.  The empty vector is the zero vector.
    """

    __slots__ = ("freqs", "amps")

    def __init__(self, freqs=(), amps=()):
        freqs = np.asarray(freqs, dtype=float)
        amps = np.asarray(amps, dtype=complex)
        freqs.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError(f"AtomicVector is immutable: cannot set {name!r}")

    def __reduce__(self):
        return AtomicVector, (self.freqs, self.amps)

    def __iter__(self):
        return map(Atom, self.freqs.tolist(), self.amps.tolist())

    def __len__(self):
        return len(self.freqs)

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return tuple(self)

    @property
    def frequencies(self) -> Tuple[float, ...]:
        return tuple(self.freqs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicVector):
            return NotImplemented
        return (np.array_equal(self.freqs, other.freqs)
                and np.array_equal(self.amps, other.amps))

    def __hash__(self) -> int:
        return hash((self.atoms,))

    def __repr__(self) -> str:
        return f"AtomicVector(atoms={self.atoms!r})"

    def amplitude(self, p: float) -> complex:
        """Amplitude at frequency p (0 if no atom sits there)."""
        i = self.freqs.searchsorted(p)
        if i < len(self.freqs) and self.freqs[i] == p:
            return complex(self.amps[i])
        return 0j

    def norm(self) -> float:
        """sqrt of sum |c|^2, the squares added in atom order.

        A sum that underflows below the normal floats, or overflows to inf, is
        taken again relative to the largest |c|.  Only moduli that could
        overflow (n |c|^2 above about 1e306) take the sum with overflow
        warnings off.
        """
        if not len(self.amps):
            return 0.0
        moduli = np.hypot(self.amps.real, self.amps.imag)
        # argmax is a C method; max goes through a Python wrapper
        top = moduli[moduli.argmax()]
        if top > 1e153 / math.sqrt(len(moduli)):
            with np.errstate(over="ignore"):
                total = np.float_power(moduli, 2.0).cumsum()[-1]
        else:
            total = np.float_power(moduli, 2.0).cumsum()[-1]
        if total < sys.float_info.min or total == math.inf:
            return top * math.sqrt(np.float_power(moduli / top, 2.0).cumsum()[-1])
        return math.sqrt(total)

    def __add__(self, other: "AtomicVector") -> "AtomicVector":
        return add(self, other)

    def __sub__(self, other: "AtomicVector") -> "AtomicVector":
        return add(self, scale(-1, other))

    def __rmul__(self, alpha: complex) -> "AtomicVector":
        return scale(alpha, self)


# The array arithmetic below rounds as the Python scalar rules do, which are
# the reference: numpy's complex product may fuse multiply-adds, so products
# go through ``cmul``; ``np.sum`` adds pairwise, so sums are running sums;
# ``abs`` of a complex is ``hypot`` and ``x ** 2`` is ``pow``.


def cmul(x, y) -> np.ndarray:
    """Elementwise x * y, rounded as Python's complex product is.

    re = xr yr - xi yi and im = xr yi + xi yr, each product and sum rounded
    on its own.  A real operand counts as complex with a zero imaginary
    part, as in Python's mixed arithmetic.  One operand may be a scalar.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    re = xr * yr - xi * yi
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = xr * yi + xi * yr
    return out


def _check_finite(p: float, c: complex) -> None:
    if not math.isfinite(p):
        raise ValueError(f"non-finite frequency: {p!r}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite amplitude: {c!r}")


def make_vector(pairs: Iterable[Tuple[float, complex]]) -> AtomicVector:
    """Build the merged normal form of (frequency, amplitude) pairs.

    Duplicate frequencies (equal floats; -0.0 equals 0.0, and the frequency
    seen first is kept) are merged by adding amplitudes in input order;
    atoms whose merged amplitude is exactly zero are dropped; the result is
    sorted by frequency.  The amplitudes are not rescaled to unit norm.
    """
    pairs = list(pairs)
    ps = np.array([p for p, _ in pairs], dtype=float)
    cs = np.array([c for _, c in pairs], dtype=complex)
    finite = np.isfinite(ps) & np.isfinite(cs)
    if np.count_nonzero(finite) < len(finite):
        i = int(finite.argmin())
        _check_finite(float(ps[i]), complex(cs[i]))
    return merge(ps, cs)


def merge(ps: np.ndarray, cs: np.ndarray) -> AtomicVector:
    """:func:`make_vector` on finite arrays of frequencies and amplitudes.

    Each merged amplitude is 0j plus its group's amplitudes in input order,
    the sum a dict accumulating ``acc[p] = acc.get(p, 0j) + c`` forms.
    Frequencies that are sorted and distinct already skip the sort.
    """
    if len(ps) < 2 or not np.count_nonzero(ps[1:] <= ps[:-1]):
        return canonical(ps, cs)
    order = ps.argsort()
    repeat = ps[order[1:]] == ps[order[:-1]]
    repeats = np.count_nonzero(repeat)
    if not repeats:
        return canonical(ps[order], cs[order])
    # a stable sort keeps equal frequencies in input order
    order = ps.argsort(kind="stable")
    first = np.concatenate([[True], ~repeat])
    sums = np.zeros(len(ps) - repeats, dtype=complex)
    np.add.at(sums, first.cumsum() - 1, cs[order])
    return canonical(ps[order][first], sums)


def canonical(ps: np.ndarray, cs: np.ndarray) -> AtomicVector:
    """The vector with atoms (ps[i], 0j + cs[i]) for sorted, distinct ps.

    Adding 0j turns a -0.0 part into 0.0, as a merge does; atoms whose
    amplitude is zero are dropped.
    """
    cs = cs + 0.0
    keep = cs != 0
    if np.count_nonzero(keep) < len(cs):
        ps, cs = ps[keep], cs[keep]
    return AtomicVector(ps, cs)


def unit_atom(p: float) -> AtomicVector:
    """The basis vector with a single unit atom at frequency p."""
    return make_vector([(p, 1.0)])


def match(f: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(i, hit) with f[i] == q where hit, for sorted, distinct, non-empty f and q of any shape."""
    i = f.searchsorted(q)
    np.minimum(i, len(f) - 1, out=i)
    return i, f[i] == q


def inner(u: AtomicVector, v: AtomicVector) -> complex:
    """Inner product, conjugate-linear in the first argument.

    Only bit-identical frequencies contribute: (1_x, 1_y) = delta_{x,y}.
    The products conj(c_u) c_v are added in u's atom order, starting at 0j.
    """
    if not len(u) or not len(v):
        return 0j
    i, hit = match(v.freqs, u.freqs)
    if not np.count_nonzero(hit):
        return 0j
    return complex(cmul(u.amps[hit].conj(), v.amps[i[hit]]).cumsum()[-1]) + 0j


def apply_mod(a: float, u: AtomicVector) -> AtomicVector:
    """M_a: the amplitude at p gains the phase e^{iap} (re-exported by ``algebra``)."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite modulation: {a!r}")
    if a == 0:
        return u
    return AtomicVector(u.freqs, cmul(np.exp(cmul(1j * a, u.freqs)), u.amps))


def norm(u: AtomicVector) -> float:
    return u.norm()


def add(u: AtomicVector, v: AtomicVector) -> AtomicVector:
    return merge(np.concatenate([u.freqs, v.freqs]), np.concatenate([u.amps, v.amps]))


def scale(alpha: complex, u: AtomicVector) -> AtomicVector:
    return canonical(u.freqs, cmul(complex(alpha), u.amps))


def serialize(u: AtomicVector) -> str:
    """JSON document: {"atoms":[{"p":...,"re":...,"im":...}, ...]}."""
    return json.dumps({"atoms": [{"p": a.p, "re": a.c.real, "im": a.c.imag} for a in u]})


def deserialize(text: str) -> AtomicVector:
    """Parse and validate a document of :func:`serialize`.

    Duplicate frequencies merge on load.  Malformed JSON, a missing or
    non-list ``"atoms"``, and entries without numeric p, re, im raise
    ValueError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed 'atoms' document at position {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise ValueError("document must be an object with key 'atoms'")
    entries = doc["atoms"]
    if not isinstance(entries, list):
        raise ValueError("'atoms' must be a list")
    pairs = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or not {"p", "re", "im"} <= set(e):
            raise ValueError(f"'atoms' entry #{i} must have keys p, re, im")
        try:
            pairs.append((float(e["p"]), complex(float(e["re"]), float(e["im"]))))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"'atoms' entry #{i} must hold numbers: {exc}") from exc
    return make_vector(pairs)
