"""Engine of the contract linter: findings, suppressions, registry.

A :class:`Checker` inspects one parsed file at a time through
:meth:`Checker.check` and may emit repo-wide findings from
:meth:`Checker.finalize` (e.g. "this registered hook point is never
fired").  The engine owns everything contract-agnostic: walking the
tree, parsing, repo-relative paths, per-line suppression comments with
their mandatory audit reasons, and the ``pyproject.toml`` allowlists.

Suppression grammar (enforced by the engine itself — ``CL001``/
``CL002`` are findings like any other)::

    x = risky()  # contractlint: disable=CL101 -- calibration timer only

The ``-- reason`` tail is **required**: a suppression is an exception
to a binding contract, and the audit trail of *why* lives next to it.
Multiple codes separate with commas (``disable=CL101,CL301 -- ...``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache",
              ".hypothesis", "build", "dist"}

#: The engine's own meta codes (suppression audit trail).
META_CODES = {
    "CL001": "suppression comment is missing its '-- reason' audit tail",
    "CL002": "suppression comment names an unknown error code",
}

_SUPPRESS_RE = re.compile(
    r"#\s*contractlint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s+--\s*(\S.*))?$"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation at a source location."""

    path: str           # repo-relative, posix separators
    line: int           # 1-based
    col: int            # 0-based (ast convention)
    code: str           # stable "CLxxx" identifier
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def describe(self) -> "dict[str, object]":
        """JSON-ready record (the findings artifact rows)."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration (defaults + ``pyproject.toml``).

    ``allow`` maps an error code to repo-relative path prefixes that
    are exempt from it — the allowlist for sanctioned sites (e.g. a
    legacy RNG module exempt from ``CL102``).  Prefixes match whole
    path segments: ``src/repro/cam`` allows the package, not
    ``src/repro/camera.py``.
    """

    allow: "dict[str, tuple[str, ...]]" = field(default_factory=dict)

    def allows(self, code: str, rel_path: str) -> bool:
        for prefix in self.allow.get(code, ()):
            prefix = prefix.rstrip("/")
            if rel_path == prefix or rel_path.startswith(prefix + "/"):
                return True
        return False


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.contractlint]`` from *root*'s ``pyproject.toml``."""
    try:
        import tomllib
    except ImportError:  # Python 3.10: no stdlib TOML parser.
        # The repo carries no allowlist entries today, so linting with
        # the defaults is exact; the CI gate runs on 3.12 regardless.
        return LintConfig()

    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    with open(pyproject, "rb") as handle:
        table = tomllib.load(handle)
    section = table.get("tool", {}).get("contractlint", {})
    allow_raw = section.get("allow", {})
    allow = {str(code): tuple(str(p) for p in paths)
             for code, paths in allow_raw.items()}
    return LintConfig(allow=allow)


@dataclass
class FileContext:
    """One parsed file handed to every relevant checker."""

    rel_path: str
    tree: ast.Module
    source: str


@dataclass
class RepoContext:
    """Repo-level facts shared by the checkers.

    ``knob_names`` come from the parameter list of
    ``validate_service_knobs`` in ``src/repro/knobs.py`` and ``hook_points``
    from the ``HOOK_POINTS`` tuple in ``src/repro/faults/plan.py`` —
    both read from *source*, never imported, so the linter works on an
    unimportable tree.  Checkers stash cross-file state in ``shared``
    during :meth:`Checker.check` and read it back in
    :meth:`Checker.finalize`.
    """

    root: Path
    config: LintConfig
    knob_names: "tuple[str, ...]" = ()
    hook_points: "tuple[str, ...]" = ()
    shared: "dict[str, object]" = field(default_factory=dict)


class Checker:
    """Base class: subclass, set ``name``/``codes``, register.

    ``codes`` maps every stable code the checker may emit to the
    one-line contract it guards (rendered by ``--list-codes`` and the
    DESIGN.md table).  ``scope`` is a tuple of repo-relative path
    prefixes the checker applies to.
    """

    name: str = ""
    codes: "dict[str, str]" = {}
    scope: "tuple[str, ...]" = ("src/repro",)

    def relevant(self, rel_path: str) -> bool:
        return any(rel_path == prefix or rel_path.startswith(prefix + "/")
                   for prefix in self.scope)

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        raise NotImplementedError

    def finalize(self, repo: RepoContext) -> "list[Finding]":
        return []


_REGISTRY: "list[type[Checker]]" = []


def register(cls: "type[Checker]") -> "type[Checker]":
    """Class decorator adding a checker to the global registry."""
    _REGISTRY.append(cls)
    return cls


def registered_checkers() -> "tuple[type[Checker], ...]":
    _ensure_checkers_loaded()
    return tuple(_REGISTRY)


def all_codes() -> "dict[str, str]":
    """Every stable code -> the one-line contract it guards."""
    codes = dict(META_CODES)
    for cls in registered_checkers():
        codes.update(cls.codes)
    return codes


def _ensure_checkers_loaded() -> None:
    # Importing the package registers every checker module exactly once.
    import tools.contractlint.checkers  # noqa: F401


# -- suppressions ------------------------------------------------------------


@dataclass(frozen=True)
class Suppression:
    line: int
    codes: "tuple[str, ...]"
    reason: "str | None"


def parse_suppressions(source: str) -> "list[Suppression]":
    """Suppressions from *comment tokens* only — a docstring that merely
    quotes the grammar is not a suppression."""
    import io
    import tokenize

    out: "list[Suppression]" = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes = tuple(code.strip() for code in match.group(1).split(",")
                      if code.strip())
        out.append(Suppression(line=token.start[0], codes=codes,
                               reason=match.group(2)))
    return out


def _apply_suppressions(findings: "list[Finding]", ctx: FileContext,
                        known_codes: "dict[str, str]") -> "list[Finding]":
    """Drop suppressed findings; emit the suppression meta findings."""
    suppressions = parse_suppressions(ctx.source)
    out: "list[Finding]" = []
    suppressed: "dict[int, set[str]]" = {}
    for sup in suppressions:
        if sup.reason is None:
            out.append(Finding(
                path=ctx.rel_path, line=sup.line, col=0, code="CL001",
                message="suppression needs an audit reason: "
                        "'# contractlint: disable=CLxxx -- why'",
            ))
            continue  # a reasonless suppression suppresses nothing
        for code in sup.codes:
            if code not in known_codes:
                out.append(Finding(
                    path=ctx.rel_path, line=sup.line, col=0, code="CL002",
                    message=f"suppression names unknown code {code!r}",
                ))
            else:
                suppressed.setdefault(sup.line, set()).add(code)
    for finding in findings:
        if finding.code in suppressed.get(finding.line, ()):
            continue
        out.append(finding)
    return out


# -- repo facts read from source ---------------------------------------------

#: Fallbacks when the source of truth is absent (tiny test repos).
_FALLBACK_KNOBS = ("micro_batch", "compaction")


def read_knob_names(root: Path) -> "tuple[str, ...]":
    """Parameter names of ``validate_service_knobs`` in knobs.py."""
    path = root / "src" / "repro" / "knobs.py"
    if not path.is_file():
        return _FALLBACK_KNOBS
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name == "validate_service_knobs"):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs]
            return tuple(names)
    return _FALLBACK_KNOBS


def read_hook_points(root: Path) -> "tuple[str, ...]":
    """The ``HOOK_POINTS`` literal in ``src/repro/faults/plan.py``."""
    path = root / "src" / "repro" / "faults" / "plan.py"
    if not path.is_file():
        return ()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "HOOK_POINTS" in targets and isinstance(node.value, ast.Tuple):
                return tuple(elt.value for elt in node.value.elts
                             if isinstance(elt, ast.Constant)
                             and isinstance(elt.value, str))
    return ()


# -- the engine --------------------------------------------------------------


def _iter_python_files(root: Path) -> "list[Path]":
    files: "list[Path]" = []
    for base in ("src", "benchmarks", "tools", "examples"):
        top = root / base
        if not top.is_dir():
            continue
        for path in sorted(top.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in path.parts):
                files.append(path)
    return files


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.code)


def run_lint(root: "Path | str",
             files: "list[Path] | None" = None) -> "list[Finding]":
    """Lint the repo rooted at *root*; returns sorted findings.

    *files* restricts the scan (CLI positional arguments); repo-wide
    finalize checks (e.g. "hook point never fired") only run on a full
    scan, since a partial file list would make them vacuously noisy.
    """
    root = Path(root).resolve()
    config = load_config(root)
    repo = RepoContext(root=root, config=config,
                       knob_names=read_knob_names(root),
                       hook_points=read_hook_points(root))
    checkers = [cls() for cls in registered_checkers()]
    known = all_codes()
    full_scan = files is None
    if files is None:
        files = _iter_python_files(root)
    findings: "list[Finding]" = []
    for path in files:
        rel_path = Path(path).resolve().relative_to(root).as_posix()
        source = Path(path).read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(Finding(
                path=rel_path, line=exc.lineno or 1, col=0, code="CL002",
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        ctx = FileContext(rel_path=rel_path, tree=tree, source=source)
        per_file: "list[Finding]" = []
        for checker in checkers:
            if checker.relevant(rel_path):
                per_file.extend(checker.check(ctx, repo))
        per_file = [f for f in per_file
                    if not config.allows(f.code, f.path)]
        findings.extend(_apply_suppressions(per_file, ctx, known))
    if full_scan:
        for checker in checkers:
            findings.extend(f for f in checker.finalize(repo)
                            if not config.allows(f.code, f.path))
    return sorted(findings, key=_sort_key)


def lint_source(source: str, rel_path: str,
                repo: "RepoContext | None" = None) -> "list[Finding]":
    """Lint one in-memory file as if it lived at *rel_path*.

    The fixture-test entry point: golden files are read from
    ``tests/tools/fixtures`` and checked under the production path
    they impersonate.  Finalize checks do not run (they are repo-wide).
    """
    if repo is None:
        repo = RepoContext(root=Path("."), config=LintConfig(),
                           knob_names=_FALLBACK_KNOBS,
                           hook_points=())
    tree = ast.parse(source)
    ctx = FileContext(rel_path=rel_path, tree=tree, source=source)
    findings: "list[Finding]" = []
    for cls in registered_checkers():
        checker = cls()
        if checker.relevant(rel_path):
            findings.extend(checker.check(ctx, repo))
    findings = [f for f in findings
                if not repo.config.allows(f.code, f.path)]
    return sorted(_apply_suppressions(findings, ctx, all_codes()),
                  key=_sort_key)
