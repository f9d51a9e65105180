"""Every top-level import of a ``coresel`` module is used in that module,
every module-level private name is read somewhere in the package, no
module but the CLI reaches the C allocator, and no run-path module imports
the oracles.

No linter ships with the package's test dependencies, so these stdlib
``ast`` checks stand in for the unused-import and dead-code rules.
``__init__.py`` is exempt from the import check: its imports are the
package's public names.
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


def unread_private_names(sources: list) -> list:
    """Module-level private names (``_x``, not dunders) that the functions,
    classes and assignments at the top of ``sources`` define and that no
    ``Name`` or attribute of any source reads outside the statement that
    defines them, in definition order. Names are matched by spelling across
    all sources, as ``models._as_batch`` is read outside ``models``."""
    defined, reads = [], []
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            reads.append((node, {n.id if isinstance(n, ast.Name) else n.attr
                                 for n in ast.walk(node)
                                 if isinstance(n, ast.Attribute)
                                 or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}))
    return [name for name, home in defined
            if not any(name in names for node, names in reads if node is not home)]


def test_all_modules_are_collected():
    assert {p.stem for p in MODULES} >= {"influence", "models", "selection"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_name():
    source = ("import os, numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n    np.zeros(1)\n")
    assert unused_imports(source) == ["os", "Sequence"]


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_private_name_check_flags_names_read_only_by_themselves():
    source = ("import numpy as np\n_LIMIT = 3\n_unused = 4\n"
              "def _recurse(k):\n    return _recurse(k - 1) if k else 0\n"
              "def _helper():\n    return np.zeros(_LIMIT)\n"
              "class _Dead:\n    pass\n")
    other = "from . import mod\nx = mod._helper()\n"
    assert unread_private_names([source, other]) == ["_unused", "_recurse", "_Dead"]


# process-wide allocator settings belong to the CLI entry, which owns its
# process; the library is called from processes it does not own
ALLOCATOR_NAMES = {"ctypes", "mallopt"}


def allocator_references(source: str) -> list:
    """Imports, names and attributes of ``source`` that reach ``ctypes`` or
    ``mallopt``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]] + [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ALLOCATOR_NAMES]
    return [name for _, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.stem)
def test_only_the_cli_reaches_the_allocator(path):
    assert allocator_references(path.read_text(encoding="utf-8")) == []


def test_allocator_check_flags_every_kind_of_reference():
    source = ("import ctypes.util\nfrom ctypes import CDLL\n"
              "def f(lib):\n    return lib.mallopt(-1, 0)\n")
    assert allocator_references(source) == ["ctypes", "ctypes", "mallopt"]
    assert allocator_references((SRC / "cli.py").read_text(encoding="utf-8"))


# the modules `coresel run`, `sweep` and `select` execute; the oracles they
# are checked against stay out of them
RUN_PATH = ("numkit", "models", "influence", "selection", "harness", "cli")


def imported_coresel_modules(source: str) -> set:
    """The ``coresel`` modules that ``source``'s imports name, relative
    (``from . import x``, ``from .x import y``) or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("coresel.")}
        elif isinstance(node, ast.ImportFrom):
            # a relative import in the package resolves under coresel
            base = ".".join(filter(None, ("coresel" if node.level else "", node.module)))
            if base == "coresel":
                found |= {a.name for a in node.names}
            elif base.startswith("coresel."):
                found.add(base.split(".")[1])
    return found


@pytest.mark.parametrize("name", RUN_PATH)
def test_no_run_path_module_imports_the_oracles(name):
    assert "oracles" not in imported_coresel_modules(
        (SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_import_check_flags_every_kind_of_import():
    for source in ("from . import oracles\n", "from .oracles import grad\n",
                   "from coresel import oracles\n", "import coresel.oracles\n",
                   "from coresel.oracles import grad\n",
                   "def f():\n    from .oracles import grad\n"):
        assert imported_coresel_modules(source) == {"oracles"}, source
    assert "oracles" in imported_coresel_modules((SRC / "validation.py").read_text(
        encoding="utf-8"))
