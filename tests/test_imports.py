"""Every top-level import of a ``coresel`` module is used in that module.

No linter ships with the package's test dependencies, so this stdlib
``ast`` check stands in for the unused-import rule. ``__init__.py`` is
exempt: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coresel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no ``Name`` node
    of the module reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_all_modules_are_collected():
    assert {p.stem for p in MODULES} >= {"influence", "models", "selection"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_name():
    source = ("import os, numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n    np.zeros(1)\n")
    assert unused_imports(source) == ["os", "Sequence"]
