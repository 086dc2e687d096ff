"""Every ``repro`` module, and every public symbol in it, is reached by
code that is not a test.

**Modules.**  A module counts as reached when a non-test,
non-``__init__`` file under ``src/``, ``benchmarks/``, ``examples/``,
``tools/`` or ``perfbench/`` imports it by name, or imports from its
package a name it defines.  Package re-exports do not count: they would
keep any module alive.

**Symbols.**  The public top-level functions and classes of
``src/repro``, and the public methods and properties of its public
classes, are walked by name over the AST, transitively.  A name is
reached when

* a non-test file under ``benchmarks/``, ``examples/``, ``tools/`` or
  ``perfbench/`` references it (an identifier, an attribute, or a
  dotted string such as perfbench's ``"module"`` / ``"Qual.name"``
  probe targets);
* module-level code under ``src/repro`` references it (imports and
  ``__all__`` do not count: they would keep any name alive);
* the body of a reached symbol references it (a reached class brings
  in its bases, decorators, class-level statements and dunder
  methods); or
* a code span or block of ``docs/api.md`` or ``README.md`` names it.

The walk is by name, not by type: a reached ``stats`` reaches every
``stats`` method.  An unreached symbol gets one of three outcomes:
it is deleted with its tests; it moves under ``tests/`` as a
brute-force oracle the live code is compared against; or it gets an
``ALLOWED`` entry naming the paper equation or documented API it
implements.

There is one test id per module and per symbol, so a failure names
what is unreached.  Each package's ``__all__`` must also name only what
the package binds, so a deletion cannot leave a dangling re-export.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOTS = ("src", "benchmarks", "examples", "tools", "perfbench")
DOCS = ("docs/api.md", "README.md")

#: Modules or symbols no root reaches, each with the paper equation or
#: documented API it implements.  An entry must name a module or public
#: symbol that is still unreached, so a stale exemption fails.
ALLOWED: "dict[str, str]" = {
    "repro.cam.energy.search_energy_eq1":
        "the paper's Eq. (1) closed form, the oracle the level-table "
        "search energy is tested against (docs/api.md, 'Paper closed forms')",
    "repro.cam.energy.vml_variance_eq2":
        "the paper's Eq. (2) closed form, the oracle the charge-domain "
        "sigma model is tested against (docs/api.md, 'Paper closed forms')",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[\w.:]+")
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _dotted(path: Path, src: Path = SRC) -> str:
    return ".".join(path.relative_to(src).with_suffix("").parts)


MODULES = sorted(_dotted(path) for path in (SRC / "repro").rglob("*.py")
                 if path.stem not in ("__init__", "__main__"))
PACKAGES = sorted(_dotted(path.parent)
                  for path in (SRC / "repro").rglob("__init__.py"))


def _is_test(path: Path, root: Path = ROOT) -> bool:
    return ("tests" in path.relative_to(root).parts or path.name.startswith("test_")
            or path.name == "conftest.py")


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, _DEFS):
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


@lru_cache(maxsize=None)
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


def _module_unreached(module: str) -> bool:
    package = module.rpartition(".")[0]
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    defined = {f"{package}.{name}" for name in _defined_names(_parse(path))}
    imported = _imported_outside_tests()
    return module not in imported and not defined & imported


# -- the symbol walk ---------------------------------------------------------

def _names(nodes, strings: bool = False) -> set[str]:
    """Identifiers and attribute names the nodes reference; with
    *strings*, also the parts of dotted string constants."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and _DOTTED.fullmatch(node.value)):
                found.update(_IDENTIFIER.findall(node.value))
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(src: Path):
    """``(qualified name, name, public, code nodes)`` for every top-level
    def and every non-dunder method under ``src/repro``."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = _dotted(path, src).removesuffix(".__init__")
        for node in _parse(path).body:
            if not isinstance(node, _DEFS):
                continue
            qualified = f"{module}.{node.name}"
            public = not node.name.startswith("_")
            if not isinstance(node, ast.ClassDef):
                out.append((qualified, node.name, public, [node]))
                continue
            methods = [m for m in node.body if isinstance(m, _DEFS)]
            body = [*node.bases, *node.keywords, *node.decorator_list,
                    *(s for s in node.body if not isinstance(s, _DEFS)),
                    *(m for m in methods if _is_dunder(m.name))]
            out.append((qualified, node.name, public, body))
            out.extend((f"{qualified}.{m.name}", m.name,
                        public and not m.name.startswith("_"), [m])
                       for m in methods if not _is_dunder(m.name))
    return out


def _root_names(root: Path) -> set[str]:
    names = set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        names |= _names(s for s in _parse(path).body
                        if not isinstance(s, _DEFS + _IMPORTS))
    for top in ROOTS[1:]:  # src counts only through module-level code
        for path in sorted((root / top).rglob("*.py")):
            if not _is_test(path, root):
                names |= _names([_parse(path)], strings=True)
    for doc in DOCS:
        path = root / doc
        if path.exists():
            for span in _CODE.findall(path.read_text()):
                names.update(_IDENTIFIER.findall(span))
    return names


@lru_cache(maxsize=None)
def unreached_symbols(root: Path = ROOT) -> frozenset[str]:
    """The public symbols under ``root/src/repro`` nothing reaches."""
    definitions = _definitions(root / "src")
    by_name: "dict[str, list]" = {}
    for definition in definitions:
        by_name.setdefault(definition[1], []).append(definition)
    seen, reached = set(), set()
    todo = list(_root_names(root))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qualified, _, _, body in by_name.get(name, ()):
            if qualified not in reached:
                reached.add(qualified)
                todo.extend(_names(body) - seen)
    return frozenset(qualified for qualified, _, public, _ in definitions
                     if public and qualified not in reached)


SYMBOLS = sorted(q for q, _, public, _ in _definitions(SRC) if public)


# -- the tests ---------------------------------------------------------------

@pytest.mark.parametrize("module", MODULES)
def test_module_is_imported_outside_tests(module):
    if module in ALLOWED:
        package = module.rpartition(".")[0]
        init = SRC.joinpath(*package.split("."), "__init__.py")
        assert module in _imported(_parse(init)), ALLOWED[module]
        return
    assert not _module_unreached(module), f"{module} is imported only by tests"


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_symbol_is_reached(symbol):
    if symbol in ALLOWED:
        return
    assert symbol not in unreached_symbols(), \
        f"{symbol} is reached only by tests: delete it, move it under " \
        f"tests/ as an oracle, or give it an ALLOWED entry"


def test_allowed_entries_are_modules():
    """Every exemption names a module or a public symbol, with a reason."""
    for name, reason in ALLOWED.items():
        assert reason.strip(), name
        assert name in MODULES or name in SYMBOLS, \
            f"ALLOWED names no module or public symbol: {name}"


def test_allowed_entries_are_live():
    """Every exemption is still needed: without it, its module or
    symbol would fail, so a stale entry fails here."""
    for name in ALLOWED:
        if name in MODULES:
            assert _module_unreached(name), f"stale ALLOWED entry {name}"
        else:
            assert name in unreached_symbols(), f"stale ALLOWED entry {name}"


def test_walk_flags_exactly_the_test_only_symbols(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/widgets.py": """
            def orphan():
                return 1

            def helper():
                return 2

            def probed():
                return 3

            def documented():
                return 4

            def registered():
                return 7

            HOOKS = [registered]

            class Widget:
                def run(self):
                    return helper()

                def outer(self):
                    return self.inner()

                def inner(self):
                    return 5

                def __len__(self):
                    return self.size()

                def size(self):
                    return 6
            """,
        "examples/demo.py": """
            from repro.widgets import Widget
            Widget().run()
            """,
        "perfbench/probes.py": 'TARGETS = [("repro.widgets", "probed")]\n',
        "docs/api.md": "Call `repro.widgets.documented()` for the value.\n",
        "README.md": "A widget library; orphan is named in prose only.\n",
        "tests/test_widgets.py": """
            from repro.widgets import Widget, orphan
            def test_all():
                assert orphan() == 1 and Widget().outer() == 5
            """,
    }
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    assert unreached_symbols(tmp_path) == {
        "repro.widgets.orphan",
        "repro.widgets.Widget.outer",
        "repro.widgets.Widget.inner",
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    namespace = importlib.import_module(package)
    exported = namespace.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(namespace, name)]
    assert missing == [], f"{package}.__all__ names unbound {missing}"
