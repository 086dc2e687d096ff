"""Every ``repro`` module is reached by code that is not a test.

A module counts as reached when a non-test, non-``__init__`` file under
``src/``, ``benchmarks/``, ``examples/``, ``tools/`` or ``perfbench/``
imports it by name, or imports from its package a name it defines.
Package re-exports do not count: they would keep any module alive.
There is one test id per module, so a failure names the module.

Each package's ``__all__`` must also name only what the package binds,
so a deleted module cannot leave a dangling re-export behind.
"""

from __future__ import annotations

import ast
import importlib
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOTS = ("src", "benchmarks", "examples", "tools", "perfbench")

#: Modules reached only through a package ``__init__``, with the reason.
ALLOWED = {
    "repro.kernels.gemm": "imported by repro.kernels.__init__ so that it "
                          "registers the numpy-gemm backend",
}


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


MODULES = sorted(_dotted(path) for path in (SRC / "repro").rglob("*.py")
                 if path.stem not in ("__init__", "__main__"))
PACKAGES = sorted(_dotted(path.parent)
                  for path in (SRC / "repro").rglob("__init__.py"))


def _is_test(path: Path) -> bool:
    return ("tests" in path.relative_to(ROOT).parts or path.name.startswith("test_")
            or path.name == "conftest.py")


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _imported(tree: ast.Module) -> set[str]:
    """Dotted names this file imports: modules, and ``package.name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


@lru_cache(maxsize=None)
def _imported_outside_tests() -> frozenset[str]:
    imported = set()
    for root in ROOTS:
        for path in (ROOT / root).rglob("*.py"):
            if path.stem != "__init__" and not _is_test(path):
                imported |= _imported(_parse(path))
    return frozenset(imported)


@pytest.mark.parametrize("module", MODULES)
def test_module_is_imported_outside_tests(module):
    package = module.rpartition(".")[0]
    if module in ALLOWED:
        init = SRC.joinpath(*package.split("."), "__init__.py")
        assert module in _imported(_parse(init)), ALLOWED[module]
        return
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    defined = {f"{package}.{name}" for name in _defined_names(_parse(path))}
    imported = _imported_outside_tests()
    assert module in imported or defined & imported, \
        f"{module} is imported only by tests"


def test_allowed_entries_are_modules():
    assert set(ALLOWED) <= set(MODULES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    namespace = importlib.import_module(package)
    exported = namespace.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(namespace, name)]
    assert missing == [], f"{package}.__all__ names unbound {missing}"
