"""Source hygiene: every name a module of atomdyn imports is read in it,
and so is every private name it defines at module level; no class is a
dataclass, and importing the CLI does not load ``dataclasses``.

An AST scan, so it needs no linter: a name bound by ``import`` or
``from ... import`` must occur as a loaded name somewhere in the module
(``np.exp`` reads ``np``).  ``__init__.py`` is skipped, since its imports
are the package's public namespace, and so are ``__future__`` imports.
A module-level function, class or constant named ``_x`` (not a dunder) is
private to its module, so the module must read it too.
"""

from __future__ import annotations

import ast
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


def unread_private_names(source: str):
    """(line, name) of each module-level ``_x`` definition the module never reads."""
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
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


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


def test_cli_import_leaves_out_dataclasses():
    code = "import sys, atomdyn.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
