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
from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class Atom:
    """A single frequency/amplitude pair."""

    p: float
    c: complex


@dataclass(frozen=True)
class AtomicVector:
    """Immutable finite-support vector; atoms sorted by frequency.

    Construct through :func:`make_vector`, which merges duplicates and
    drops zero amplitudes.  The empty vector is the zero vector.
    """

    atoms: Tuple[Atom, ...] = ()

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    @property
    def frequencies(self) -> Tuple[float, ...]:
        return tuple(a.p for a in self.atoms)

    def amplitude(self, p: float) -> complex:
        """Amplitude at frequency p (0 if no atom sits there)."""
        for a in self.atoms:
            if a.p == p:
                return a.c
        return 0j

    def norm(self) -> float:
        return math.sqrt(sum(abs(a.c) ** 2 for a in self.atoms))

    def __add__(self, other: "AtomicVector") -> "AtomicVector":
        return add(self, other)

    def __sub__(self, other: "AtomicVector") -> "AtomicVector":
        return add(self, scale(-1, other))

    def __rmul__(self, alpha: complex) -> "AtomicVector":
        return scale(alpha, self)


ZERO = AtomicVector()


def _check_finite(p: float, c: complex) -> None:
    if not math.isfinite(p):
        raise ValueError(f"non-finite frequency: {p!r}")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite amplitude: {c!r}")


def make_vector(pairs: Iterable[Tuple[float, complex]]) -> AtomicVector:
    """Build a normalized vector from (frequency, amplitude) pairs.

    Duplicate frequencies (bit-equal floats) are merged by adding
    amplitudes; atoms whose merged amplitude is exactly zero are dropped;
    the result is sorted by frequency.
    """
    acc: dict[float, complex] = {}
    for p, c in pairs:
        p = float(p)
        c = complex(c)
        _check_finite(p, c)
        acc[p] = acc.get(p, 0j) + c
    atoms = tuple(Atom(p, acc[p]) for p in sorted(acc) if acc[p] != 0)
    return AtomicVector(atoms)


def unit_atom(p: float) -> AtomicVector:
    """The basis vector with a single unit atom at frequency p."""
    return make_vector([(p, 1.0)])


def inner(u: AtomicVector, v: AtomicVector) -> complex:
    """Inner product, conjugate-linear in the first argument.

    Only bit-identical frequencies contribute: (1_x, 1_y) = delta_{x,y}.
    """
    vmap = {a.p: a.c for a in v}
    total = 0j
    for a in u:
        cv = vmap.get(a.p)
        if cv is not None:
            total += a.c.conjugate() * cv
    return total


def norm(u: AtomicVector) -> float:
    return u.norm()


def add(u: AtomicVector, v: AtomicVector) -> AtomicVector:
    return make_vector([(a.p, a.c) for a in u.atoms + v.atoms])


def scale(alpha: complex, u: AtomicVector) -> AtomicVector:
    return make_vector([(a.p, alpha * a.c) for a in u])


def dump_document(u: AtomicVector, key: str) -> str:
    """JSON document {key: [{"p":..., "re":..., "im":...}, ...]}."""
    return json.dumps({key: [{"p": a.p, "re": a.c.real, "im": a.c.imag} for a in u]})


def load_document(text: str, key: str) -> AtomicVector:
    """Parse and validate a document of :func:`dump_document`.

    Duplicate frequencies merge on load.  Malformed JSON, a missing or
    non-list ``key``, and entries without numeric p, re, im raise ValueError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed {key!r} document at position {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"document must be an object with key {key!r}")
    entries = doc[key]
    if not isinstance(entries, list):
        raise ValueError(f"{key!r} must be a list")
    pairs = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or not {"p", "re", "im"} <= set(e):
            raise ValueError(f"{key!r} entry #{i} must have keys p, re, im")
        try:
            pairs.append((float(e["p"]), complex(float(e["re"]), float(e["im"]))))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key!r} entry #{i} must hold numbers: {exc}") from exc
    return make_vector(pairs)


def serialize(u: AtomicVector) -> str:
    """JSON document: {"atoms":[{"p":...,"re":...,"im":...}, ...]}."""
    return dump_document(u, "atoms")


def deserialize(text: str) -> AtomicVector:
    """Parse a vector document; duplicate frequencies merge on load."""
    return load_document(text, "atoms")
