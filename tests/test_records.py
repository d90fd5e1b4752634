"""The immutable value types keep the rules of a frozen dataclass.

Every record of the package compares as (same class, equal field tuple),
hashes as its field tuple, prints as ``Name(field=value, ...)``, pickles and
deep-copies, and refuses assignment and deletion with
``dataclasses.FrozenInstanceError``.  The reprs, pickle bytes and messages
below were those of the dataclass implementation.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from atomdyn.atoms import Atom, make_vector
from atomdyn.algebra import ONE, AlgebraElement, Multiplier, indicator, wave
from atomdyn.channels import (
    AveragedState,
    MixedState,
    NormalState,
    PureState,
    StateDecomposition,
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
from atomdyn.trig import CesaroQuadratureConfig

U = make_vector([(0.0, 0.6), (1.5, 0.8j)])
U_REPR = "AtomicVector(atoms=(Atom(p=0.0, c=(0.6+0j)), Atom(p=1.5, c=0.8j)))"
PS = PureState(U)
MIX = FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(2.0))))
MIX_REPR = "FiniteMixture(components=((0.5, Rademacher()), (0.5, Gaussian(D=2.0))))"

# (a function that builds the record, its repr, its fields)
RECORDS = [
    (lambda: Atom(-0.0, 1 + 2j), "Atom(p=-0.0, c=(1+2j))", ("p", "c")),
    (lambda: Multiplier(), "Multiplier(c=(1+0j), a=0.0, lo=-inf, hi=inf)",
     ("c", "a", "lo", "hi")),
    (lambda: Multiplier(1j, 2.0, -1.0, 3.0), "Multiplier(c=1j, a=2.0, lo=-1.0, hi=3.0)",
     ("c", "a", "lo", "hi")),
    (lambda: AlgebraElement.of([(0.5, wave(1.0), 0.25), (2j, indicator(-1, 1), -0.5)]),
     "AlgebraElement(terms=(((0.5+0j), Multiplier(c=(1+0j), a=1.0, lo=-inf, hi=inf), 0.25), "
     "(2j, Multiplier(c=(1+0j), a=0.0, lo=-1.0, hi=1.0), -0.5)))", ("rows",)),
    (lambda: CesaroQuadratureConfig(10.0, 64), "CesaroQuadratureConfig(window=10.0, steps=64)",
     ("window", "steps")),
    (lambda: PureState(U), f"PureState(vector={U_REPR})", ("vector",)),
    (lambda: MixedState(((0.25, PS), (0.75, PS))),
     f"MixedState(components=((0.25, PureState(vector={U_REPR})), "
     f"(0.75, PureState(vector={U_REPR}))))", ("components",)),
    (lambda: AveragedState(PS, Gaussian(1.0)),
     f"AveragedState(base=PureState(vector={U_REPR}), smoothing=Gaussian(D=1.0))",
     ("base", "smoothing")),
    (lambda: StateDecomposition(0.5, ((1.0, PS),), ((1.0, AveragedState(PS, Cauchy(0.5))),)),
     "StateDecomposition(normal_weight=0.5, "
     f"normal_components=((1.0, PureState(vector={U_REPR})),), "
     f"singular_components=((1.0, AveragedState(base=PureState(vector={U_REPR}), "
     "smoothing=Cauchy(gamma=0.5))),))",
     ("normal_weight", "normal_components", "singular_components")),
    (lambda: Gaussian(), "Gaussian(D=1.0)", ("D",)),
    (lambda: Cauchy(0.5), "Cauchy(gamma=0.5)", ("gamma",)),
    (lambda: Rademacher(), "Rademacher()", ()),
    (lambda: Uniform(-1.0, 2.0), "Uniform(a=-1.0, b=2.0)", ("a", "b")),
    (lambda: PointMass(0.25), "PointMass(a=0.25)", ("a",)),
    (lambda: FiniteMixture(((0.5, Rademacher()), (0.5, Gaussian(2.0)))), MIX_REPR,
     ("components",)),
    (lambda: ConvolutionFamily("cauchy"), "ConvolutionFamily(kind='cauchy')", ("kind",)),
    (lambda: SeededRng(7), "SeededRng(seed=7)", ("seed",)),
]
IDS = [type(make()).__name__ for make, _, _ in RECORDS]
NORMAL = NormalState((0.0, 1.0), np.array([[0.5, 0.1], [0.1, 0.5]]))
NORMAL_REPR = ("NormalState(support=(0.0, 1.0), matrix=array([[0.5+0.j, 0.1+0.j],\n"
               "       [0.1+0.j, 0.5+0.j]]))")


@pytest.mark.parametrize("make, text, fields", RECORDS, ids=IDS)
def test_repr_eq_hash(make, text, fields):
    record, again = make(), make()
    assert repr(record) == text and type(record)._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    assert hash(record) == hash(values)
    assert again is not record and again == record and not again != record
    assert hash(again) == hash(record)
    assert record.__eq__(values) is NotImplemented and record != values


def test_normal_state_repr_and_hash():
    assert repr(NORMAL) == NORMAL_REPR
    assert repr(AveragedState(NORMAL, MIX)) == (
        f"AveragedState(base={NORMAL_REPR}, smoothing={MIX_REPR})")
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(NORMAL)
    # the matrix compares by identity first, as a tuple's items do
    assert NORMAL == NormalState._channel_output(NORMAL.support, NORMAL.matrix)


def test_field_rules():
    assert hash(PS) == hash((U,)) and PS == PureState(U)
    assert Rademacher() == Rademacher() and hash(Rademacher()) == hash(())
    assert Gaussian() == Gaussian(1.0) and Gaussian(1.0) != Cauchy(1.0)
    assert Multiplier() == ONE and Multiplier(lo=0.0) != ONE
    assert list(vars(Multiplier(1j, 2.0, -1.0, 3.0))) == ["c", "a", "lo", "hi"]
    # the fields are plain instance attributes
    assert vars(Uniform(0.0, 2.0)) == {"a": 0.0, "b": 2.0}


@pytest.mark.parametrize("record", [make() for make, _, _ in RECORDS]
                         + [NORMAL, AveragedState(NORMAL, MIX)],
                         ids=IDS + ["NormalState", "AveragedState-normal"])
def test_pickle_and_deepcopy(record):
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(back) is type(record) and repr(back) == repr(record)
        if "NormalState" not in repr(record):
            assert back == record and hash(back) == hash(record)


def test_pickle_bytes():
    assert pickle.dumps(Multiplier(1j, 2.0, -1.0, 3.0), 4).hex() == (
        "80049584000000000000008c0f61746f6d64796e2e616c6765627261948c0a4d756c7469706c696572"
        "9493942981947d94288c0163948c086275696c74696e73948c07636f6d706c657894939447000000000000"
        "0000473ff0000000000000869452948c0161944740000000000000008c026c6f9447bff00000000000008c"
        "0268699447400800000000000075622e")
    assert pickle.dumps(Gaussian(2.0), 4).hex() == (
        "80049531000000000000008c0c61746f6d64796e2e72616e64948c08476175737369616e9493942981947d"
        "948c01449447400000000000000073622e")
    # an element pickles with its cached terms, and compares by rows
    A = RECORDS[3][0]()
    A.terms
    back = pickle.loads(pickle.dumps(A))
    assert sorted(vars(back)) == ["rows", "terms"] and back == A


@pytest.mark.parametrize("record", [make() for make, _, _ in RECORDS] + [NORMAL],
                         ids=IDS + ["NormalState"])
def test_frozen(record):
    for name in (*type(record)._fields, "other"):
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(frozen, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)


ps_two = PureState(make_vector([(0.0, 1.0)]))
VALIDATION = [
    (lambda: Gaussian(0.0), "variance must be positive: 0.0"),
    (lambda: Gaussian(math.inf), "variance must be positive: inf"),
    (lambda: Cauchy(-1.0), "scale must be positive: -1.0"),
    (lambda: Uniform(1.0, 1.0), r"need a < b, got \[1.0, 1.0\]"),
    (lambda: Uniform(0.0, math.inf), r"need a < b, got \[0.0, inf\]"),
    (lambda: PointMass(math.nan), "non-finite location: nan"),
    (lambda: FiniteMixture(()), "mixture needs at least one component"),
    (lambda: FiniteMixture(), "mixture needs at least one component"),
    (lambda: FiniteMixture(((-0.5, Gaussian()), (1.5, Gaussian()))),
     "mixture weights must be non-negative"),
    (lambda: FiniteMixture(((0.5, Gaussian()),)), "mixture weights must sum to 1, got 0.5"),
    (lambda: ConvolutionFamily("uniform"), "unknown family kind: 'uniform'"),
    (lambda: CesaroQuadratureConfig(0.0, 64), "window must be finite and positive: 0.0"),
    (lambda: CesaroQuadratureConfig(math.inf, 64), "window must be finite and positive: inf"),
    (lambda: CesaroQuadratureConfig(1.0, 1), "steps must be at least 2: 1"),
    (lambda: PureState(make_vector([(0.0, 2.0)])), "pure state vector must be unit norm, got 2.0"),
    (lambda: MixedState(((-0.5, ps_two), (1.5, ps_two))), "mixture weights must be non-negative"),
    (lambda: MixedState(((0.5, ps_two),)), "mixture weights must sum to 1, got 0.5"),
    (lambda: StateDecomposition(1.5, (), ()), r"normal weight must lie in \[0, 1\]: 1.5"),
    (lambda: StateDecomposition(1.0, (), ((1.0, AveragedState(ps_two, Gaussian())),)),
     "weight 1 admits no singular part"),
    (lambda: StateDecomposition(0.0, ((1.0, ps_two),), ()), "weight 0 admits no normal part"),
    (lambda: NormalState((0.0, math.nan), np.eye(2) / 2), "support frequencies must be finite"),
    (lambda: NormalState((0.0, 0.0), np.eye(2) / 2), "support frequencies must be distinct"),
    (lambda: NormalState((0.0,), np.eye(2) / 2),
     r"matrix shape \(2, 2\) does not match support size 1"),
    (lambda: NormalState((0.0, 1.0), np.array([[0.5, 1], [0, 0.5]])),
     "density matrix must be Hermitian"),
    (lambda: NormalState((0.0, 1.0), np.array([[0.5, math.nan], [math.nan, 0.5]])),
     "density matrix entries must be finite"),
    (lambda: NormalState((0.0, 1.0), np.array([[0.5, math.inf], [math.inf, 0.5]])),
     "density matrix entries must be finite"),
    (lambda: NormalState((0.0, 1.0), np.array([[math.inf, 0.0], [0.0, 0.5]])),
     "density matrix entries must be finite"),
    (lambda: NormalState((0.0, 1.0), np.eye(2)),
     r"density matrix trace must be 1, got np.complex128\(2\+0j\)"),
    (lambda: NormalState((0.0, 1.0), np.array([[1.5, 0], [0, -0.5]])),
     "density matrix must be positive semidefinite"),
    (lambda: AlgebraElement([(1.0, Multiplier(2.0), 0.0)]),
     r"term multiplier Multiplier\(c=2.0, a=0.0, lo=-inf, hi=inf\) is not in normal form, "
     "a Multiplier with c = 1; build the element with AlgebraElement.of"),
]


@pytest.mark.parametrize("make, message", VALIDATION)
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_keywords_and_defaults():
    assert Multiplier(lo=0.0, hi=1.0) == Multiplier(1 + 0j, 0.0, 0.0, 1.0)
    assert Uniform(b=2.0) == Uniform(-1.0, 2.0) and PointMass() == PointMass(a=0.0)
    assert Cauchy() == Cauchy(gamma=1.0) and Gaussian(D=2.0) == Gaussian(2.0)
    assert Atom(c=1j, p=2.0) == Atom(2.0, 1j)
    assert StateDecomposition(normal_weight=1.0, normal_components=((1.0, PS),),
                              singular_components=()).normal_part == PS
