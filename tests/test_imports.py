"""Every imported name in the package and the tests is used, every
module-level name of the package is read somewhere, every function the
benchmark's tracer wraps exists, and every Python block of the README runs.

A stdlib stand-in for a linter's unused-import rule: it parses each module
and reports names bound by an import that no expression in the module
reads. `__init__.py` files are skipped, since their imports are re-exports.
The dead-name rule reports a top-level def, class or assignment of a package
module that its own module never reads and that no module of the package,
the tests or the benchmark imports or reads as `module.name`.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aqisim"
SCANNED = (PACKAGE, ROOT / "tests")
READERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
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


def _defined(tree: ast.Module) -> dict[str, int]:
    """{name: line} of each top-level def, class and assignment target."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        out.setdefault(leaf.id, node.lineno)
    return out


def _outside_reads(tree: ast.Module) -> set[str]:
    """Names a module imports from another, or reads as `module.name` off a
    module it imported."""
    modules: set[str] = set()
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.add(alias.name)
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            out.add(node.attr)
    return out


def dead_names(defining: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each top-level name of a `defining` module
    (name -> source) that the module never reads and no source of `readers`
    imports or reads as `module.name`."""
    outside = set().union(*(_outside_reads(ast.parse(source)) for source in readers))
    found = []
    for module, source in defining.items():
        tree = ast.parse(source)
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(module, line, name) for name, line in _defined(tree).items()
                  if name not in own and name not in outside]
    return sorted(found)


def test_the_scan_finds_a_dead_name():
    defining = {
        "a": "X = 1\nY, Z = 2, 3\ndef f():\n    return Y\ndef g(): pass\nclass C: pass\ndef h(): pass\n",
        "b": "W = 0\n",
    }
    readers = ["from a import g\nimport b\nb.W\n", "from pkg import a\na.C()\nself.h\n"]
    assert dead_names(defining, readers + list(defining.values())) == [
        ("a", 1, "X"), ("a", 2, "Z"), ("a", 3, "f"), ("a", 7, "h"),
    ]


def test_no_package_name_is_dead():
    # a name nothing reads is code the program does not run
    defining = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "__init__.py"}
    readers = [path.read_text() for top in READERS for path in sorted(top.rglob("*.py"))]
    assert dead_names(defining, readers) == []


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


def test_every_readme_python_block_runs(tmp_path):
    # a block that imports a deleted name fails here instead of in a reader's shell
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
