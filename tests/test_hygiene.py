"""Static hygiene of the code base: no unused imports, no dead definitions.

Two AST scans, each a tier-1 test:

* every name a module imports in ``src/``, ``tests/`` or ``examples/`` is
  used in that module (a load, an annotation, a string annotation or an
  ``__all__`` entry); an import line marked ``# noqa: F401`` is exempt;
* every top-level function or class in ``src/``, and every method defined
  directly in such a class, is referenced somewhere in ``src/``, ``tests/``,
  ``examples/`` or ``perfbench/`` other than its own definition.  A
  reference is a name, an attribute or a word inside a non-docstring string
  (``perfbench/tracing.py`` names its targets as strings).  ``__all__``
  entries and import lines do not count; dunder methods are exempt, the
  interpreter calls them.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
IMPORT_SCAN = ("src", "tests", "examples")
REFERENCE_SCAN = ("src", "tests", "examples", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def _python_files(*directories: str) -> list[Path]:
    return sorted(
        path
        for directory in directories
        for path in (ROOT / directory).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _docstrings(tree: ast.Module) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _all_entries(tree: ast.Module) -> set[int]:
    """``id()`` of every string constant listed in a module's ``__all__``."""
    found = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant):
                    found.add(id(item))
    return found


# --------------------------------------------------------------------------- #
# unused imports
# --------------------------------------------------------------------------- #
def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module loads, including inside string annotations and
    its ``__all__`` list."""
    used: set[str] = set()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            # String annotations ("PlanReport | None") and __all__ entries.
            used.update(WORD.findall(node.value))
    return used


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``path`` binds and never uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _names_used(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "noqa: F401" in statement:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


@pytest.mark.parametrize(
    "path",
    _python_files(*IMPORT_SCAN),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# --------------------------------------------------------------------------- #
# unreferenced definitions
# --------------------------------------------------------------------------- #
def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions and classes, and the methods of those classes."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((member.name, member))
    return defined


def _references(tree: ast.Module) -> Counter:
    """How often each name is referenced: loads, attributes, renaming
    imports and words in non-docstring strings outside ``__all__``."""
    counts: Counter = Counter()
    skipped = _docstrings(tree) | _all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias) and node.asname:
            counts[node.name.split(".")[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            counts.update(WORD.findall(node.value))
    return counts


def _unreferenced_definitions() -> list[str]:
    references: Counter = Counter()
    for path in _python_files(*REFERENCE_SCAN):
        references.update(_references(_parse(path)))
    unreferenced = []
    for path in _python_files("src"):
        for name, node in _definitions(_parse(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not references[name]:
                unreferenced.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unreferenced


def test_every_src_definition_is_referenced():
    assert _unreferenced_definitions() == []


def test_the_scans_see_what_they_look_for(tmp_path):
    """The scans flag a planted unused import and dead function."""
    module = tmp_path / "planted.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def used(path: 'Path') -> None:\n"
        "    '''Mentions dead() in a docstring only.'''\n"
        "def dead():\n"
        "    return used\n"
        "__all__ = ['dead']\n"
    )
    assert _unused_imports(module) == [(1, "os")]
    tree = _parse(module)
    counts = _references(tree)
    names = {name for name, _ in _definitions(tree)}
    assert names == {"used", "dead"}
    assert counts["used"] == 1 and counts["dead"] == 0
