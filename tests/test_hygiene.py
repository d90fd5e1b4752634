"""Source hygiene: every name a module of atomdyn imports is read in it.

An AST scan, so it needs no linter: a name bound by ``import`` or
``from ... import`` must occur as a loaded name somewhere in the module
(``np.exp`` reads ``np``).  ``__init__.py`` is skipped, since its imports
are the package's public namespace, and so are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "atomdyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


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
