"""Source hygiene: every name a module of atomdyn imports is read in it,
and so is every private name it defines at module level; no class is a
dataclass, importing the CLI does not load ``dataclasses``, and no code
but the CLI's process entry point changes the process's garbage collector
or ends the process without shutdown.  No library module but the CLI
takes an eigen-decomposition, and only ``atoms.match`` clamps a
``searchsorted`` index, so the bit-equal match of frequencies is written
once.  Only ``NormalState._channel_output`` and ``algebra._normal_form``
build an instance without its constructor, and in ``channels`` only
``expect_function``, ``projector_value`` and ``_lebesgue`` take a law's
``lebesgue_split``.  No module calls the builtin ``sum``, whose rounding
changes with the Python version.  Only the law base and the mixture
define ``to_json``, only the law base defines ``sample`` and ``draw``, and
no module imports a private name from another.  Importing the package or
the CLI loads no library module, each command loads only the modules it
uses, and the lazy package namespace still gives every public name.

An AST scan, so it needs no linter: a name bound by ``import`` or
``from ... import`` must occur as a loaded name somewhere in the module
(``np.exp`` reads ``np``).  ``__init__.py`` is skipped, since its imports
are the package's public namespace, and so are ``__future__`` imports.
A module-level function, class or constant named ``_x`` (not a dunder) is
private to its module, so the module must read it too.  A public one that
its module never reads must be imported by name or read as
``<module>.<name>`` somewhere under ``src/``, ``tests/``, ``demos/`` or
``perfbench/``, or be listed in the package's ``_EXPORTS``; otherwise it is
dead.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "atomdyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _loaded_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = _loaded_names(tree)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def unread_definitions(source: str):
    """name -> line of each module-level function, class or assigned name (no
    dunder) that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        defined[name.id] = node.lineno
    read = _loaded_names(tree)
    return {name: line for name, line in defined.items()
            if not name.startswith("__") and name not in read}


def unread_private_names(source: str):
    """(line, name) of each module-level ``_x`` definition the module never reads."""
    return sorted((line, name) for name, line in unread_definitions(source).items()
                  if name.startswith("_"))


def test_scan_sees_modules():
    assert {"atoms.py", "algebra.py", "channels.py"} <= {p.name for p in MODULES}


def test_scan_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Optional, Tuple\n"
        "def f(x: Tuple) -> float:\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "os"), (5, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unread_private_names():
    source = (
        "import math\n"
        "_USED = 1.0\n"
        "_CUT = 1e-14\n"
        "_a, _b = 1, 2\n"
        "__all__ = ['f']\n"
        "PUBLIC = 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Spare:\n"
        "    _inner = 0\n"
        "def f(x):\n"
        "    _local = _a\n"
        "    return math.sqrt(x) + _local\n"
    )
    assert unread_private_names(source) == [
        (3, "_CUT"), (4, "_b"), (7, "_helper"), (9, "_Spare")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


# where a name of a library module may be used from outside it
USERS = [p for d in ("src", "tests", "demos", "perfbench")
         for p in sorted((SRC.parents[1] / d).rglob("*.py"))]


def outside_uses(module: str, source: str):
    """Names of ``module`` that ``source`` imports by name or reads as ``module.name``."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", None) == module or getattr(owner, "attr", None) == module:
                used.add(node.attr)
    return used


def dead_names(module: str, source: str, users, exported=()):
    """(line, name) of each module-level name of ``module`` that it never reads,
    no ``users`` source imports or reads as ``module.name``, and ``exported`` omits."""
    used = set(exported).union(*(outside_uses(module, text) for text in users))
    return sorted((line, name) for name, line in unread_definitions(source).items()
                  if name not in used)


def test_scan_flags_dead_names():
    source = (
        "import math\n"
        "ZERO = 0.0\n"
        "ONE = 1.0\n"
        "HALF = 0.5\n"
        "_CUT = 1e-14\n"
        "def f(x):\n"
        "    return math.sqrt(x) + HALF\n"
        "def g():\n"
        "    return 1\n"
        "class Law:\n"
        "    pass\n"
    )
    users = ["from atomdyn.rand import ONE\n",
             "from atomdyn import rand\nrand.g()\n",
             "import atomdyn\natomdyn.rand.Law\nother.ZERO\n"]
    assert dead_names("rand", source, users, exported=["f"]) == [(2, "ZERO"), (5, "_CUT")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_names(path):
    # a public name its module never reads is used from outside it, or exported
    from atomdyn import _EXPORTS
    module = path.stem
    users = [p.read_text() for p in USERS if p != path]
    assert dead_names(module, path.read_text(), users, _EXPORTS.get(module, "").split()) == []


def dataclass_decorators(source: str):
    """Line of each ``dataclass`` decorator, called or not, plain or dotted."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if isinstance(target, ast.Attribute):
                    target = ast.Name(target.attr)
                if getattr(target, "id", "") == "dataclass":
                    lines.append(deco.lineno)
    return lines


def test_scan_flags_dataclasses():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    y: int\n"
        "@other\n"
        "class C:\n"
        "    pass\n"
    )
    assert dataclass_decorators(source) == [3, 6]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_dataclasses(path):
    # each decorated class costs about 1 ms of exec at every import; records
    # derive from atoms.Record instead
    assert dataclass_decorators(path.read_text()) == []


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports atomdyn from src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'atomdyn')"


def test_cli_import_leaves_out_dataclasses():
    assert fresh("import sys, atomdyn.cli; print('dataclasses' in sys.modules)") == "False"


def test_cli_import_loads_no_library_module():
    assert fresh(f"import sys, atomdyn.cli; print({LOADED})") == str(["atomdyn", "atomdyn.cli"])


# the library modules each command loads, besides atomdyn; ``-m`` runs the
# CLI as __main__, so atomdyn.cli itself is not in sys.modules
COMMAND_MODULES = {
    "chernoff": ["atoms", "rand"],
    "cesaro": ["atoms", "trig"],
    "walk-decay": ["algebra", "atoms", "rand"],
    "verify": ["algebra", "atoms", "channels", "rand"],
    "semigroup": ["algebra", "atoms", "channels", "rand"],
    "dephase": ["algebra", "atoms", "channels", "rand"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(command, tmp_path):
    # ``python -m atomdyn.cli <command>``, with the modules listed at exit
    code = (
        "import atexit, runpy, sys\n"
        f"atexit.register(lambda: print({LOADED}))\n"
        f"sys.argv = ['atomdyn', {command!r}, '--out', {str(tmp_path / 'r.csv')!r}]\n"
        "runpy.run_module('atomdyn.cli', run_name='__main__', alter_sys=True)\n"
    )
    want = ["atomdyn"] + [f"atomdyn.{m}" for m in COMMAND_MODULES[command]]
    assert fresh(code) == str(sorted(want))


# calls that change the whole process: importing or calling the library must
# leave the caller's collector and shutdown alone
PROCESS_WIDE = {("gc", "freeze"), ("gc", "disable"), ("os", "_exit")}


def process_wide_names(source: str):
    """(line, name, function) of each ``gc.freeze``, ``gc.disable`` or
    ``os._exit`` the source names, as an attribute or a ``from`` import;
    ``function`` is the enclosing module-level function, or "" outside one.
    """
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in PROCESS_WIDE):
                found.append((node.lineno, f"{node.value.id}.{node.attr}", where))
            elif isinstance(node, ast.ImportFrom):
                found.extend((node.lineno, f"{node.module}.{alias.name}", where)
                             for alias in node.names
                             if (node.module, alias.name) in PROCESS_WIDE)
    return found


def test_scan_flags_process_wide_calls():
    source = (
        "import gc, os\n"
        "from gc import disable\n"
        "def run():\n"
        "    gc.freeze()\n"
        "    return gc.collect()\n"
        "def stop():\n"
        "    os._exit(0)\n"
        "gc.disable()\n"
    )
    assert process_wide_names(source) == [
        (2, "gc.disable", ""), (4, "gc.freeze", "run"), (7, "os._exit", "stop"),
        (8, "gc.disable", "")]


def test_only_the_entry_point_freezes():
    found = [(path.name, name, where) for path in MODULES + [SRC / "__init__.py"]
             for _, name, where in process_wide_names(path.read_text())]
    assert found == [("cli.py", "gc.freeze", "run")]


# numpy's eigen-decompositions; the library needs none of them, and a PSD
# verdict is a Cholesky factorization
EIGEN = {"eig", "eigh", "eigvals", "eigvalsh"}


def eigen_calls(source: str):
    """(line, name) of each ``linalg.eig*`` the source names, as an attribute
    (``np.linalg.eigvalsh``, ``linalg.eigh``) or a ``from ... linalg`` import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in EIGEN
                and isinstance(node.value, (ast.Attribute, ast.Name))
                and getattr(node.value, "attr", getattr(node.value, "id", "")) == "linalg"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in EIGEN)
    return sorted(found)


def test_scan_flags_eigen_calls():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "from numpy.linalg import eigh, norm\n"
        "from scipy.linalg import eigvals as ev\n"
        "def f(m):\n"
        "    np.linalg.cholesky(m)\n"
        "    w = np.linalg.eigvalsh(m).min()\n"
        "    return linalg.eig(m), m.eigh, w\n"
    )
    assert eigen_calls(source) == [(3, "eigh"), (4, "eigvals"), (7, "eigvalsh"), (8, "eig")]


@pytest.mark.parametrize("name", ["atoms.py", "algebra.py", "rand.py", "channels.py", "trig.py"])
def test_library_takes_no_eigen_decomposition(name):
    # the CLI's dephase residual reports the smallest eigenvalue, so it keeps its call
    assert eigen_calls((SRC / name).read_text()) == []


def clamp_calls(source: str):
    """(line, owner) of each call of ``minimum`` (``np.minimum``, a bare
    ``minimum``) and each ``from ... import minimum``, where owner is the
    module-level function or class that holds it (None at module level).

    The clamp of a ``searchsorted`` index is the step of a bit-equal match of
    frequencies that is easiest to spot, so a second match shows up here.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                if getattr(node.func, "attr", getattr(node.func, "id", None)) == "minimum":
                    found.append((node.lineno, owner))
            elif isinstance(node, ast.ImportFrom):
                found.extend((node.lineno, owner) for alias in node.names
                             if alias.name == "minimum")
    return sorted(found, key=lambda item: item[0])


def test_scan_flags_clamp_calls():
    source = (
        "import numpy as np\n"
        "from numpy import minimum as lowest\n"
        "def match(f, q):\n"
        "    i = f.searchsorted(q)\n"
        "    np.minimum(i, len(f) - 1, out=i)\n"
        "    return i, f[i] == q\n"
        "def inner(u, v):\n"
        "    i = np.minimum(v.searchsorted(u), len(v) - 1)\n"
        "    return min(i), np.maximum(i, 0), np.minimum.reduce(i)\n"
        "class Law:\n"
        "    def at(self, x):\n"
        "        return minimum(x, 1.0)\n"
    )
    assert clamp_calls(source) == [(2, None), (5, "match"), (8, "inner"), (12, "Law")]


def test_the_bit_equal_match_is_written_once():
    found = [(path.name, owner) for path in MODULES for _, owner in clamp_calls(path.read_text())]
    assert found == [("atoms.py", "match")]


def bare_builds(source: str):
    """(line, owner) of each call of an attribute ``__new__`` (``object.__new__(cls)``),
    where owner is the module-level function, or ``Class.member``, that holds it.

    Such a call makes an instance without running its constructor's checks, so
    each call site is a second constructor of its class.
    """
    found = []
    for top in ast.parse(source).body:
        parts = ([(f"{top.name}.{getattr(item, 'name', '')}", item) for item in top.body]
                 if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
        for owner, tree in parts:
            found += [(node.lineno, owner) for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "__new__"]
    return sorted(found)


def test_scan_flags_bare_builds():
    source = (
        "s = object.__new__(State)\n"
        "class State:\n"
        "    _fields = ('base',)\n"
        "    @classmethod\n"
        "    def _of(cls, base):\n"
        "        s = object.__new__(cls)\n"
        "        return s\n"
        "def build(rows):\n"
        "    e = Element.__new__(Element)\n"
        "    return State(rows), new(rows)\n"
    )
    assert bare_builds(source) == [(1, None), (6, "State._of"), (9, "build")]


# the only builds that skip a constructor, each for its reason: the Cholesky
# check that a channel's output skips costs about 1.5 ms an output at m = 200,
# and _normal_form is the one builder of an element
BARE_BUILDS = [("algebra.py", "_normal_form"), ("channels.py", "NormalState._channel_output")]


def test_only_two_builds_skip_a_constructor():
    found = [(path.name, owner) for path in MODULES for _, owner in bare_builds(path.read_text())]
    assert found == BARE_BUILDS


def call_sites(source: str, name: str):
    """(line, owner) of each call of ``name`` (a bare name or an attribute), where
    owner is the module-level function or class that holds it (None at module level)."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found += [(node.lineno, owner) for node in ast.walk(top) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]
    return sorted(found, key=lambda item: item[0])


def draw_checks(source: str):
    """The call sites of ``check_draws``.

    A Monte Carlo draw is checked where its profile is taken, so a second
    call site would check the same draws twice.
    """
    return call_sites(source, "check_draws")


def test_scan_flags_draw_checks():
    source = (
        "from .algebra import check_draws\n"
        "check_draws(xs)\n"
        "def profile(base, xs):\n"
        "    check_draws(xs, *sets(base))\n"
        "def landed(base, xs):\n"
        "    algebra.check_draws(xs, base.freqs)\n"
        "    return check_shifts(base.freqs, 0.0, 1.0)\n"
    )
    assert draw_checks(source) == [(2, None), (4, "profile"), (6, "landed")]


def test_projector_draws_are_checked_by_the_profile_alone():
    assert [owner for _, owner in draw_checks((SRC / "channels.py").read_text())] == [
        "_projector_profile"]


def split_calls(source: str):
    """The call sites of ``lebesgue_split``.

    A law's atoms meet a state where its split is taken: ``expect_function``
    sums f over them, ``projector_value`` takes the profile at them, and
    ``_lebesgue`` pairs the base with each as a shift, for both the Yosida--Hewitt split
    and the normality witness.  A fourth call site would walk the atoms again.
    """
    return call_sites(source, "lebesgue_split")


def test_scan_flags_split_calls():
    source = (
        "atoms = law.lebesgue_split()[0]\n"
        "def split(s, normal):\n"
        "    atoms, cw, part = s.smoothing.lebesgue_split()\n"
        "class Law:\n"
        "    def lebesgue_split(self):\n"
        "        return lebesgue_split(self.parts)\n"
        "def mass(s):\n"
        "    return sum(pr for _, pr in s.smoothing.lebesgue_split()[0]) + split(s, [])\n"
    )
    assert split_calls(source) == [(1, None), (3, "split"), (6, "Law"), (8, "mass")]


def test_a_law_meets_a_state_in_three_places():
    assert [owner for _, owner in split_calls((SRC / "channels.py").read_text())] == [
        "expect_function", "projector_value", "_lebesgue"]


def builtin_sums(source: str):
    """(line, owner) of each call of the bare name ``sum``, owner as in ``call_sites``.

    Builtin ``sum`` compensates from Python 3.12, so one list of floats adds to
    other bits there; ``atoms.fold``, the running sum, is the package's one
    summation rule.  ``np.sum`` and ``x.sum()`` are attributes and do not count.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found += [(node.lineno, owner) for node in ast.walk(top) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    return sorted(found, key=lambda item: item[0])


def test_scan_flags_builtin_sums():
    source = (
        "import numpy as np\n"
        "total = sum(ws)\n"
        "def mass(s):\n"
        "    return sum((w for w in s), 0.0) + np.sum(s) + s.sum()\n"
        "class Law:\n"
        "    def mean(self):\n"
        "        return fold(w * d.mean for w, d in self.parts)\n"
        "    def cdf(self, x):\n"
        "        return sum(w * d.cdf(x) for w, d in self.parts)\n"
    )
    assert builtin_sums(source) == [(2, None), (4, "mass"), (9, "Law")]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert builtin_sums(path.read_text()) == []


def second_samplers(source: str):
    """(line, what) of each class but ``Distribution`` that defines ``sample``
    or ``draw``, and of each ``.choice`` call: a law defines its draws once,
    in ``_draw``, and the base class alone checks and gathers them, so a
    discrete law's atom indices and its samples cannot drift apart.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name != "Distribution":
            found += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name in ("sample", "draw")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "choice"):
            found.append((node.lineno, "choice"))
    return sorted(found)


def test_scan_flags_second_samplers():
    source = (
        "class Distribution:\n"
        "    def draw(self, gen, size):\n"
        "        return self._draw(gen, size)\n"
        "    def sample(self, gen, size):\n"
        "        return locs[idx]\n"
        "class Coin(Distribution):\n"
        "    def _draw(self, gen, size):\n"
        "        return locs, gen.integers(0, 2, size)\n"
        "    def sample(self, gen, size):\n"
        "        return gen.choice(locs, size)\n"
        "class Bell(Distribution):\n"
        "    def draw(self, gen, size):\n"
        "        return gen.normal(0.0, 1.0, size), None\n"
    )
    assert second_samplers(source) == [(9, "Coin.sample"), (10, "choice"), (12, "Bell.draw")]


def test_discrete_laws_sample_through_atom_indices():
    # each law draws through its own _draw alone, and the base class checks
    # the generator and gathers xs[idx] for every law
    assert second_samplers((SRC / "rand.py").read_text()) == []
    from atomdyn import rand
    laws = [cls for cls in vars(rand).values()
            if isinstance(cls, type) and issubclass(cls, rand.Distribution)
            and cls is not rand.Distribution]
    assert {cls.__name__ for cls in laws} == {"Gaussian", "Cauchy", "Rademacher", "Uniform",
                                               "PointMass", "FiniteMixture"}
    assert all("_draw" in vars(cls) and not {"sample", "draw"} & set(vars(cls))
               for cls in laws)


def private_imports(source: str):
    """(line, name) of each ``_x`` name (not a dunder) imported from a module of atomdyn."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "atomdyn")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_scan_flags_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .algebra import ONE, _check_shifts\n"
        "from numpy.random import _pickle\n"
        "def f():\n"
        "    from atomdyn.rand import _legendre, Gaussian\n"
        "    from ..atoms import _hidden as h\n"
    )
    assert private_imports(source) == [(3, "_check_shifts"), (6, "_legendre"), (7, "_hidden")]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # a name another module needs is a module-level public name, exported or not
    assert private_imports(path.read_text()) == []


def to_json_owners(source: str):
    """Names of the classes that define their own ``to_json``, in source order."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == "to_json"
                    for item in node.body)]


def test_scan_flags_to_json_owners():
    source = (
        "class Distribution:\n"
        "    def to_json(self):\n"
        "        return {}\n"
        "class Bell(Distribution):\n"
        "    _fields = ('D',)\n"
        "class Coin(Distribution):\n"
        "    def to_json(self):\n"
        "        return {'kind': 'coin'}\n"
    )
    assert to_json_owners(source) == ["Distribution", "Coin"]


def test_simple_laws_share_one_to_json():
    # the kind table and the fields are the one owner of a law's JSON form;
    # the documents are those the per-law methods wrote, key order included
    from atomdyn.rand import (Cauchy, Gaussian, PointMass, Rademacher, Uniform,
                              distribution_from_json)
    assert to_json_owners((SRC / "rand.py").read_text()) == ["Distribution", "FiniteMixture"]
    for law, doc in [(Gaussian(0.5), {"kind": "gaussian", "D": 0.5}),
                     (Cauchy(1.5), {"kind": "cauchy", "gamma": 1.5}),
                     (Rademacher(), {"kind": "rademacher"}),
                     (Uniform(-0.5, 2.0), {"kind": "uniform", "a": -0.5, "b": 2.0}),
                     (PointMass(0.25), {"kind": "pointmass", "a": 0.25})]:
        assert list(law.to_json().items()) == list(doc.items())
        assert distribution_from_json(doc) == law


def chi_hooks(source: str):
    """{class: its methods named _chi or _chi_pow} for each class with the base Distribution."""
    return {node.name: [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                        and item.name in ("_chi", "_chi_pow")]
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Distribution" for base in node.bases)}


def test_scan_lists_chi_hooks():
    source = (
        "class Distribution:\n"
        "    def _chi(self, x):\n"
        "        pass\n"
        "class Bell(Distribution):\n"
        "    def _chi_pow(self, x, n):\n"
        "        pass\n"
        "class Coin(Distribution):\n"
        "    def _chi(self, x):\n"
        "        pass\n"
        "    def _chi_pow(self, x, n):\n"
        "        pass\n"
    )
    assert chi_hooks(source) == {"Bell": ["_chi_pow"], "Coin": ["_chi", "_chi_pow"]}


def test_each_law_writes_chi_once():
    # a law writes chi itself or its power, and chi(x, n) is the one public call
    source = (SRC / "rand.py").read_text()
    hooks = chi_hooks(source)
    assert sorted(hooks) == ["Cauchy", "FiniteMixture", "Gaussian", "PointMass", "Rademacher",
                             "Uniform"]
    assert all(len(names) == 1 for names in hooks.values()), hooks
    assert not [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "chi_pow"]


# the package's public names, by the module that first exported them;
# apply_mod now lives in atoms and McEstimate in rand, and both old modules
# re-export them; trig's trapezoid names gave way to cesaro_inner
EXPORTS = {
    "atoms": ["AtomicVector", "make_vector", "unit_atom", "inner", "norm", "add", "scale"],
    "trig": ["cesaro_inner", "modulation_gap_exact"],
    "algebra": ["AlgebraElement", "Multiplier", "apply_shift", "apply_mod", "shift_overlaps",
                "apply_element", "compose", "adjoint", "weyl_residual", "generator_apply",
                "indicator", "constant"],
    "rand": ["Distribution", "Gaussian", "Cauchy", "Rademacher", "Uniform", "PointMass",
             "FiniteMixture", "ConvolutionFamily", "SeededRng", "random_walk_apply",
             "expected_walk_apply", "chernoff_error", "distribution_from_json"],
    "channels": ["PureState", "NormalState", "MixedState", "AveragedState", "evaluate",
                 "channel_T", "averaged_T", "averaged_Phi", "semigroup_T", "semigroup_Phi",
                 "projector_value", "normality_witness", "yosida_hewitt_split",
                 "dephasing_kernel", "McEstimate", "QuadratureError"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestNamespace:
    def test_import_loads_no_module(self):
        assert fresh(f"import sys, atomdyn; print({LOADED})") == "['atomdyn']"

    def test_exports_resolve_to_their_modules(self):
        import atomdyn

        assert len(ALL_NAMES) == 50
        for module, names in EXPORTS.items():
            mod = importlib.import_module(f"atomdyn.{module}")
            for name in names:
                assert getattr(atomdyn, name) is getattr(mod, name), name
                # cached: later reads are plain attribute reads
                assert vars(atomdyn)[name] is getattr(mod, name)
        assert atomdyn.apply_mod is importlib.import_module("atomdyn.atoms").apply_mod
        assert atomdyn.McEstimate is importlib.import_module("atomdyn.rand").McEstimate

    def test_modules_are_attributes(self):
        code = ("import atomdyn; print([getattr(atomdyn, m).__name__ for m in "
                f"{sorted(EXPORTS)!r}])")
        assert fresh(code) == str([f"atomdyn.{m}" for m in sorted(EXPORTS)])

    def test_dir_and_star_import_list_every_export(self):
        import atomdyn

        assert sorted(atomdyn.__all__) == ALL_NAMES
        assert set(ALL_NAMES) | set(EXPORTS) <= set(dir(atomdyn))
        namespace = {}
        exec("from atomdyn import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES

    def test_unknown_name(self):
        import atomdyn

        with pytest.raises(AttributeError, match=r"^module 'atomdyn' has no attribute 'nope'$"):
            atomdyn.nope
        assert not hasattr(atomdyn, "nope") and "nope" not in vars(atomdyn)
