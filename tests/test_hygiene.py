"""Static hygiene of the code base: no unused imports, no dead definitions.

Three AST scans, each a tier-1 test:

* every name a module imports in ``src/``, ``tests/`` or ``examples/`` is
  used in that module (a load, an annotation, a string annotation or an
  ``__all__`` entry); an import line marked ``# noqa: F401`` is exempt;
* every top-level function or class in ``src/``, and every method defined
  directly in such a class, is referenced somewhere in ``src/``, ``tests/``,
  ``examples/`` or ``perfbench/`` other than its own definition.  A
  reference is a name, an attribute or a word inside a non-docstring string
  (``perfbench/tracing.py`` names its targets as strings).  ``__all__``
  entries and import lines do not count; dunder methods are exempt, the
  interpreter calls them;
* every such definition is referenced from ``src/``, ``examples/`` or
  ``perfbench/``, not from ``tests/`` alone, unless :data:`TEST_ONLY_ALLOWED`
  names it with the reason it stays in ``src/`` (public API, a test oracle,
  a test hook).  Test-only code belongs under ``tests/``.
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
RUNTIME_SCAN = ("src", "examples", "perfbench")
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


def _reference_counts(paths: list[Path]) -> Counter:
    references: Counter = Counter()
    for path in paths:
        references.update(_references(_parse(path)))
    return references


def _src_definitions(paths: list[Path]):
    """``(path, line, name)`` of every non-dunder definition in ``paths``."""
    for path in paths:
        for name, node in _definitions(_parse(path)):
            if not (name.startswith("__") and name.endswith("__")):
                yield path, node.lineno, name


def _unreferenced_definitions() -> list[str]:
    references = _reference_counts(_python_files(*REFERENCE_SCAN))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in _src_definitions(_python_files("src"))
        if not references[name]
    ]


def test_every_src_definition_is_referenced():
    assert _unreferenced_definitions() == []


# --------------------------------------------------------------------------- #
# definitions only tests use
# --------------------------------------------------------------------------- #
_PUBLIC = "public API for library users"
_SEMANTICS = "public API: the I/O-IMC semantics of one Arcade element"
_SWEEP = "public API of sweeps and their stores (docs/sweep.md, docs/robustness.md)"
_ORACLE = "test oracle: an independent reference the differential tier compares with"
_WORKLOAD = "scaling-workload generator, due to move under tests/"

#: ``src/`` definitions that only ``tests/`` reference, keyed
#: ``"<path under src/>:<name>"``, each with the reason it stays in ``src/``.
TEST_ONLY_ALLOWED = {
    "repro/analysis/modular.py:subsystem_results": _PUBLIC,
    "repro/arcade/component.py:operational_states": _PUBLIC,
    "repro/arcade/model.py:add_components": _PUBLIC,
    "repro/arcade/operational_modes.py:initial_mode": _PUBLIC,
    "repro/arcade/semantics/bc_semantics.py:build_component_ioimc": _SEMANTICS,
    "repro/arcade/semantics/gate_semantics.py:build_gate_ioimc": _SEMANTICS,
    "repro/arcade/semantics/ru_semantics.py:build_repair_unit_ioimc": _SEMANTICS,
    "repro/arcade/semantics/smu_semantics.py:build_spare_unit_ioimc": _SEMANTICS,
    "repro/baselines/flat.py:exceeded_budget": _ORACLE,
    "repro/baselines/flat.py:flat_compose": _ORACLE,
    "repro/baselines/gspn/net.py:add_immediate_transition": _PUBLIC,
    "repro/casestudies/workloads.py:redundant_array_model": _WORKLOAD,
    "repro/casestudies/workloads.py:series_of_parallel_model": _WORKLOAD,
    "repro/casestudies/workloads.py:series_of_parallel_groups": _WORKLOAD,
    "repro/casestudies/workloads.py:fdep_chain_model": _WORKLOAD,
    "repro/composer/composer.py:cache_saved_seconds": _PUBLIC,
    "repro/ctmc/ctmc.py:exit_rate": _PUBLIC,
    "repro/ctmc/ctmc.py:absorbing_states": _PUBLIC,
    "repro/ctmc/measures.py:interval_unavailability": _PUBLIC,
    "repro/distributions/phase_type.py:variance": _PUBLIC,
    "repro/distributions/phase_type.py:HyperExponential": _PUBLIC,
    "repro/ioimc/actions.py:is_compatible": _PUBLIC,
    "repro/ioimc/composition.py:compose_many": _PUBLIC,
    "repro/ioimc/ioimc.py:interactive_successors": _PUBLIC,
    "repro/ioimc/ioimc.py:is_stable": _PUBLIC,
    "repro/ioimc/ioimc.py:exit_rate": _PUBLIC,
    "repro/ioimc/ioimc.py:check_input_enabled": _PUBLIC,
    "repro/ioimc/visualization.py:to_dot": _PUBLIC,
    "repro/ioimc/visualization.py:to_text": _PUBLIC,
    "repro/lumping/strong.py:reduction_factor": _PUBLIC,
    "repro/resilience/checkpoint.py:clear": _PUBLIC,
    "repro/simulation/engine.py:ArcadeSimulator": _ORACLE,
    "repro/simulation/vectorised.py:traces": _ORACLE,
    "repro/sweep/driver.py:verify_bit_identical": _SWEEP,
    "repro/sweep/store.py:load_result": _SWEEP,
    "repro/sweep/store.py:canonical_store_bytes": _SWEEP,
    "repro/telemetry/trace.py:export_events": _PUBLIC,
    "repro/telemetry/trace.py:current_telemetry": _PUBLIC,
}


def _test_only_definitions(
    src: list[Path], runtime: list[Path], tests: list[Path]
) -> list[tuple[Path, int, str]]:
    """Definitions in ``src`` that ``tests`` reference and ``runtime`` does not."""
    used_at_runtime = _reference_counts(runtime)
    used_by_tests = _reference_counts(tests)
    return [
        (path, line, name)
        for path, line, name in _src_definitions(src)
        if used_by_tests[name] and not used_at_runtime[name]
    ]


def test_no_src_definition_is_used_by_tests_alone():
    found = {
        f"{path.relative_to(ROOT / 'src')}:{name}"
        for path, _, name in _test_only_definitions(
            _python_files("src"),
            _python_files(*RUNTIME_SCAN),
            _python_files("tests"),
        )
    }
    assert sorted(found - set(TEST_ONLY_ALLOWED)) == []
    # An entry whose definition is gone or now used at runtime is stale.
    assert sorted(set(TEST_ONLY_ALLOWED) - found) == []


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
    checked = tmp_path / "test_planted.py"
    checked.write_text("from planted import dead\n\ndead()\n")
    assert [
        name for _, _, name in _test_only_definitions([module], [module], [checked])
    ] == ["dead"]
