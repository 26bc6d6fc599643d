"""Every imported name in the package and the tests is used, and every
function the benchmark's tracer wraps exists.

A stdlib stand-in for a linter's unused-import rule: it parses each module
and reports names bound by an import that no expression in the module
reads. `__init__.py` files are skipped, since their imports are re-exports.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "aqisim", ROOT / "tests")
TRACING = ROOT / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json, os.path\nfrom x import a as b, c\nos.sep, c\n"
    assert unused_imports(source) == [(2, "json"), (3, "b")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def _tracer_table(name: str) -> tuple:
    """The literal tuple `name` is assigned in the tracer's source, read
    without importing the tracer."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def test_every_traced_target_exists_in_the_package():
    # the tracer reports a missing target as 0 and only warns on stderr, so a
    # renamed or deleted function would silently zero its per-layer metrics
    importlib.import_module("aqisim")  # the package import loads every submodule
    missing = []
    for name, module, attr in _tracer_table("SPANS"):
        if not callable(getattr(sys.modules.get(module), attr, None)):
            missing.append(f"{name}: {module}.{attr}")
    for name, module, cls, method in _tracer_table("COUNTERS"):
        owner = getattr(sys.modules.get(module), cls, None)
        if owner is None or method not in vars(owner):
            missing.append(f"{name}: {module}.{cls}.{method}")
    assert missing == []
