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

**Parameters.**  Every defaulted parameter of a reached public
function, method or constructor (a public dataclass's defaulted fields,
unless ``src`` assigns them after construction) is a knob, and a knob
must be set by a non-test file under the roots: by keyword or
position in a call of its callable's name, in ``dataclasses.replace``,
or by a ``*``/``**`` call, which counts as passing everything.  An
unpassed knob is pinned to the value its callers run, or gets an
``ALLOWED_PARAMETERS`` entry: a deployment setting, how outside input
is parsed or written, a CLI's ``argv``, or a seam a named test uses to
run a smaller or simpler input.

There is one test id per module, symbol and parameter, so a failure
names what is unreached.  Each package's ``__all__`` must also name only what
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


# -- the parameter walk ------------------------------------------------------

#: Parameters no root passes, each with one of four reasons to stay.
#: The tag is the reason's class; a ``test-seam`` reason names the test
#: (``tests/<file>::<test>``) that runs the smaller or simpler input, and
#: never covers a different algorithm or model.  An entry must name a
#: parameter that is still unreached, so a stale exemption fails.
ALLOWED_PARAMETERS: "dict[str, tuple[str, str]]" = {
    "repro.refstore.catalog.ReferenceCatalog.byte_budget": (
        "deployment", "the host's memory budget for resident references; "
        "the nightly catalog churn soak (tests/refstore, --run-slow) "
        "runs it"),
    "repro.genome.io_fasta.parse_fasta.ambiguous": (
        "external-input", "the policy for IUPAC codes in a FASTA file"),
    "repro.genome.io_fasta.parse_fasta.seed": (
        "external-input", "the seed of the 'random' ambiguity policy"),
    "repro.genome.io_fasta.parse_fastq.ambiguous": (
        "external-input", "the policy for IUPAC codes in a FASTQ file"),
    "repro.genome.io_fasta.parse_fastq.seed": (
        "external-input", "the seed of the 'random' ambiguity policy"),
    "repro.genome.io_fasta.write_fasta.width": (
        "external-input", "the line width of a written FASTA file"),
    "repro.experiments.runner.main.argv": (
        "argv", "the command line of python -m repro.experiments"),
    "repro.genome.datasets.build_dataset.with_repeats": (
        "test-seam", "a repeat-free few-base dataset for "
        "tests/test_count_knobs.py::"
        "test_non_integer_count_raises_the_boundary_error"),
    "repro.baselines.kraken.KrakenLikeClassifier.k": (
        "test-seam", "k-mers of 1 to 64 bases over short rows, against "
        "the set oracle of "
        "tests/baselines/test_kraken_oracle.py::test_matches_set_oracle"),
}
PARAMETER_CLASSES = ("deployment", "external-input", "argv", "test-seam")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_MUTATORS = frozenset({"append", "extend", "update", "add", "insert",
                       "setdefault"})
_CONSTRUCTION = ("__init__", "__post_init__")


def _decorated(node, name: str) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _defaulted(node, skip: int) -> "list[tuple[str, int | None]]":
    """``(name, positional index)`` of each defaulted parameter, the
    index counted after the first *skip* parameters (``None`` for
    keyword-only ones)."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][skip:]
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, default
              in zip(args.kwonlyargs, args.kw_defaults, strict=True)
              if default is not None]
    return found


def _fields(node: ast.ClassDef) -> "list[tuple[str, int]]":
    """``(name, positional index)`` of each defaulted dataclass field."""
    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
              and isinstance(s.target, ast.Name)
              and "ClassVar" not in ast.unparse(s.annotation)]
    return [(s.target.id, i) for i, s in enumerate(fields) if s.value is not None]


def _assigned_after_construction(src: Path) -> set[str]:
    """Attribute names ``src/repro`` stores into, or mutates in place,
    outside ``__init__`` / ``__post_init__``."""
    names = set()

    def visit(node, constructing: bool):
        if isinstance(node, _FUNCTIONS):
            constructing = node.name in _CONSTRUCTION
        elif not constructing:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute)):
                names.add(node.value.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Attribute)):
                names.add(node.func.value.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, constructing)

    for path in sorted((src / "repro").rglob("*.py")):
        visit(_parse(path), False)
    return names


def _knobs(root: Path) -> "list[tuple[str, frozenset[str], str, int | None]]":
    """``(id, callee names, parameter, positional index)`` for every
    defaulted parameter of a reached public function, method or
    constructor under ``root/src/repro``; a public dataclass's
    defaulted fields are its constructor's parameters unless ``src``
    assigns them after construction."""
    src = root / "src"
    unreached = unreached_symbols(root)
    data = _assigned_after_construction(src)
    defs = [(_dotted(path, src).removesuffix(".__init__"), node)
            for path in sorted((src / "repro").rglob("*.py"))
            for node in _parse(path).body if isinstance(node, _DEFS)]
    subclasses: "dict[str, set[str]]" = {}
    for _, node in defs:
        for base in getattr(node, "bases", ()):
            if isinstance(base, ast.Name):
                subclasses.setdefault(base.id, set()).add(node.name)

    def family(name: str) -> frozenset[str]:
        found, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in found:
                found.add(current)
                todo.extend(subclasses.get(current, ()))
        return frozenset(found)

    knobs = []
    for module, node in defs:
        qualified = f"{module}.{node.name}"
        if node.name.startswith("_") or qualified in unreached or qualified in ALLOWED:
            continue
        if not isinstance(node, ast.ClassDef):
            knobs += [(f"{qualified}.{p}", frozenset({node.name}), p, i)
                      for p, i in _defaulted(node, 0)]
            continue
        if _decorated(node, "dataclass"):
            knobs += [(f"{qualified}.{p}", family(node.name), p, i)
                      for p, i in _fields(node) if p not in data]
        for method in node.body:
            if not isinstance(method, _FUNCTIONS):
                continue
            skip = 0 if _decorated(method, "staticmethod") else 1
            if method.name == "__init__":
                knobs += [(f"{qualified}.{p}", family(node.name), p, i)
                          for p, i in _defaulted(method, skip)]
            elif (not method.name.startswith("_")
                  and f"{qualified}.{method.name}" not in unreached):
                knobs += [(f"{qualified}.{method.name}.{p}",
                           frozenset({method.name}), p, i)
                          for p, i in _defaulted(method, skip)]
    return knobs


def _local_aliases(function, owner: "ast.ClassDef | None") -> "dict[str, set[str]]":
    """Names a function calls through: ``cls`` in a classmethod, and
    locals bound to a plain name (``cls, extra = HdacPass, {}``)."""
    aliases: "dict[str, set[str]]" = {}
    first = [*function.args.posonlyargs, *function.args.args][:1]
    if owner is not None and first and first[0].arg == "cls":
        aliases["cls"] = {owner.name}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)):
                pairs = list(zip(target.elts, node.value.elts, strict=True))
            for name, value in pairs:
                if isinstance(name, ast.Name) and isinstance(value, ast.Name):
                    aliases.setdefault(name.id, set()).add(value.id)
    return aliases


def _callees(call: ast.Call, aliases, owner) -> set[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return aliases.get(func.id, {func.id})
    if not isinstance(func, ast.Attribute):
        return set()
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super" and owner is not None):
        return {base.id for base in owner.bases if isinstance(base, ast.Name)}
    return {func.attr}


@lru_cache(maxsize=None)
def _passed(root: Path):
    """What the non-test files under the roots pass: ``(callee, keyword)``
    pairs, the most positional arguments per callee, the callees called
    with ``*``/``**`` unpacking, and the names given to
    ``dataclasses.replace``."""
    keywords, positional, everything, replaced = set(), {}, set(), set()

    def visit(node, aliases, owner):
        if isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, _FUNCTIONS):
            aliases = {**aliases, **_local_aliases(node, owner)}
        elif isinstance(node, ast.Call):
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            for callee in _callees(node, aliases, owner):
                if unpacked:
                    everything.add(callee)
                if callee == "replace":
                    replaced.update(k.arg for k in node.keywords if k.arg)
                keywords.update((callee, k.arg) for k in node.keywords if k.arg)
                positional[callee] = max(positional.get(callee, 0), len(node.args))
        for child in ast.iter_child_nodes(node):
            visit(child, aliases, owner)

    for top in ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            if not _is_test(path, root):
                visit(_parse(path), {}, None)
    return keywords, positional, everything, replaced


@lru_cache(maxsize=None)
def unreached_parameters(root: Path = ROOT) -> frozenset[str]:
    """The defaulted parameters of reached public callables under
    ``root/src/repro`` that no non-test file passes."""
    keywords, positional, everything, replaced = _passed(root)

    def reached(callees, name, index) -> bool:
        return name in replaced or any(
            callee in everything or (callee, name) in keywords
            or (index is not None and positional.get(callee, 0) > index)
            for callee in callees)

    return frozenset(knob for knob, callees, name, index in _knobs(root)
                     if not reached(callees, name, index))


PARAMETERS = sorted(knob for knob, *_ in _knobs(ROOT))


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


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_parameter_is_reached(parameter):
    if parameter in ALLOWED_PARAMETERS:
        return
    assert parameter not in unreached_parameters(), \
        f"{parameter} is set only by tests, or by nothing: pin it to the " \
        f"value its callers run, or give it an ALLOWED_PARAMETERS entry"


def test_allowed_parameters_are_live():
    """Every exemption names an unreached parameter and one of the four
    reasons; a test seam names a test that exists."""
    unreached = unreached_parameters()
    for name, (kind, reason) in ALLOWED_PARAMETERS.items():
        assert kind in PARAMETER_CLASSES and reason.strip(), name
        assert name in PARAMETERS, f"ALLOWED_PARAMETERS names no parameter: {name}"
        assert name in unreached, f"stale ALLOWED_PARAMETERS entry {name}"
        if kind == "test-seam":
            path, test = re.search(r"(tests/\S+\.py)::(\w+)", reason).groups()
            assert f"def {test}(" in (ROOT / path).read_text(), reason


def test_parameter_walk_flags_exactly_the_unpassed_knobs(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/widgets.py": """
            from dataclasses import dataclass

            def build(size, colour="red", *, shape="square", depth=1):
                return size, colour, shape, depth

            def stack(size, height=1):
                return size * height

            def forward(*args, **kwargs):
                return stack(*args, **kwargs)

            class Widget:
                def __init__(self, size, weight=1.0, tag=None):
                    self.size = size

                def paint(self, colour="blue", gloss=False):
                    return colour, gloss

                @classmethod
                def small(cls):
                    return cls(1, tag="small")

            @dataclass
            class Record:
                name: str
                count: int = 0
                notes: str = ""
                total: float = 0.0

                def add(self, value):
                    self.total += value

            def make_record():
                kind = Record
                return kind("r", notes="n")

            def orphan(flag=True):
                return flag
            """,
        "examples/demo.py": """
            import dataclasses
            from repro.widgets import Widget, build, forward, make_record
            build(1, "green")
            build(2, depth=3)
            forward(2, height=3)
            Widget(2).paint(gloss=True)
            Widget.small()
            dataclasses.replace(make_record(), count=2)
            """,
        "tests/test_widgets.py": """
            from repro.widgets import Widget, build, orphan
            def test_all():
                build(1, shape="round")
                Widget(1, 2.0).paint("red")
                orphan(False)
            """,
    }
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    assert unreached_parameters(tmp_path) == {
        "repro.widgets.build.shape",
        "repro.widgets.Widget.weight",
        "repro.widgets.Widget.paint.colour",
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    namespace = importlib.import_module(package)
    exported = namespace.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(namespace, name)]
    assert missing == [], f"{package}.__all__ names unbound {missing}"
