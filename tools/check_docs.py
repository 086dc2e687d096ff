#!/usr/bin/env python
"""Docs smoke check: the README front door and the API map can never rot.

Five guarantees, enforced by CI's ``docs-smoke`` job:

1. **The README quickstart runs.**  Every fenced ``python`` block in
   README.md is executed, in order, in one shared namespace (so later
   blocks use earlier blocks' variables, exactly as a reader would).
2. **README and example share one code path.**  A block preceded by a
   ``<!-- quickstart:<name> -->`` tag must be byte-identical (after
   dedent) to the ``# [readme:<name>]`` … ``# [/readme:<name>]``
   section of ``examples/quickstart.py`` — and every marked section of
   the example must appear in the README.  Edit either side without
   the other and this script fails with a diff.
3. **The example itself still passes.**  ``examples/quickstart.py`` is
   imported and its ``main()`` executed (it self-checks internally).
4. **The module map names real entry points.**  Every backticked entry
   point in the "Module map" table of ``docs/api.md`` must resolve as
   an attribute of its row's package or of one of that package's
   submodules; ``name_a/b`` expands to ``name_a`` and ``name_b``;
   backticked commands and paths (anything that is not a dotted name)
   are not entry points.  The parenthesised list after an entry names
   its members: each must be an attribute of the entry or a
   ``self.<name>`` assignment in its source (``CamArray`` (``ledger``)),
   and a list written ``(→ `X`)`` names entries of the row's package.
   Call arguments inside a member (``counts_batch(..., rotations=)``)
   and groups nested deeper are not checked.
5. **The service signature blocks name real parameters.**  Every
   ``name=`` keyword of a ``StreamingMappingService(...)``,
   ``MappingFrontend(...)`` or ``.session(...)`` call in a fenced block
   of ``docs/api.md`` (comments stripped) must be a parameter of that
   callable, checked with :func:`inspect.signature`.

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import difflib
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
QUICKSTART = REPO_ROOT / "examples" / "quickstart.py"
API_DOC = REPO_ROOT / "docs" / "api.md"

_TAG_RE = re.compile(r"<!--\s*quickstart:([\w-]+)\s*-->")
_FENCE_RE = re.compile(
    r"(?:<!--\s*quickstart:([\w-]+)\s*-->\s*\n)?```python\n(.*?)```",
    re.DOTALL,
)
_PARENS_RE = re.compile(r"\([^()]*\)")
_BACKTICK_RE = re.compile(r"`([^`]+)`")
_DOTTED_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_ALTERNATIVES_RE = re.compile(r"[\w.]+(?:/\w+)+")
_CODE_BLOCK_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
_KEYWORD_RE = re.compile(r"\b([A-Za-z_]\w*)=(?!=)")

#: Call openers of the docs/api.md signature blocks -> the callable
#: (module, qualified name) whose parameters they must name.
SIGNATURE_BLOCKS = {
    "StreamingMappingService(": ("repro.service", "StreamingMappingService"),
    "MappingFrontend(": ("repro.service", "MappingFrontend"),
    ".session(": ("repro.service", "MappingFrontend.session"),
}


def extract_readme_blocks(text: str) -> "list[tuple[str | None, str]]":
    """``(tag, code)`` for every fenced python block, in order."""
    return [(match.group(1), match.group(2))
            for match in _FENCE_RE.finditer(text)]


def extract_example_sections(text: str) -> "dict[str, str]":
    """The dedented ``# [readme:<name>]`` sections of the example."""
    sections: dict[str, str] = {}
    for match in re.finditer(
            r"^([ \t]*)# \[readme:([\w-]+)\]\n(.*?)^[ \t]*# \[/readme:\2\]",
            text, re.DOTALL | re.MULTILINE):
        indent, name, body = match.groups()
        lines = []
        for line in body.splitlines():
            if line.strip():
                if not line.startswith(indent):
                    raise SystemExit(
                        f"quickstart section {name!r}: line {line!r} is "
                        f"shallower than its section marker"
                    )
                lines.append(line[len(indent):])
            else:
                lines.append("")
        sections[name] = "\n".join(lines).rstrip() + "\n"
    return sections


def check_sync(blocks, sections) -> "list[str]":
    """Diff README-tagged blocks against the example's sections."""
    errors: list[str] = []
    tagged = {tag: code for tag, code in blocks if tag is not None}
    for name in sections:
        if name not in tagged:
            errors.append(
                f"example section [readme:{name}] has no tagged README "
                f"block (<!-- quickstart:{name} -->)"
            )
    for name, code in tagged.items():
        if name not in sections:
            errors.append(
                f"README block tagged quickstart:{name} has no "
                f"[readme:{name}] section in {QUICKSTART.name}"
            )
            continue
        want = sections[name].rstrip() + "\n"
        got = code.rstrip() + "\n"
        if want != got:
            diff = "\n".join(difflib.unified_diff(
                want.splitlines(), got.splitlines(),
                fromfile=f"examples/quickstart.py [readme:{name}]",
                tofile=f"README.md quickstart:{name}", lineterm="",
            ))
            errors.append(
                f"README block quickstart:{name} drifted from the "
                f"example:\n{diff}"
            )
    return errors


def strip_parentheticals(text: str) -> str:
    """*text* without its parenthesised groups, innermost first."""
    while True:
        stripped = _PARENS_RE.sub("", text)
        if stripped == text:
            return text
        text = stripped


def expand_alternatives(token: str) -> "list[str]":
    """``ErrorModel.condition_a/b`` -> both spelled-out names."""
    if not _ALTERNATIVES_RE.fullmatch(token):
        return [token]
    head, *alternatives = token.split("/")
    return [head] + [head[:len(head) - len(alt)] + alt
                     for alt in alternatives]


def entry_groups(cell: str) -> "list[tuple[str, str | None]]":
    """``(token, text of the group right after it)`` for every
    backticked token outside parentheses; parentheses inside backticks
    do not count."""
    groups: "list[tuple[str, str | None]]" = []
    depth = start = end = position = 0  # end: after the last entry
    while position < len(cell):
        char = cell[position]
        if char == "`":
            close = cell.index("`", position + 1)
            if depth == 0:
                groups.append((cell[position + 1:close], None))
                end = close + 1
            position = close
        elif char == "(":
            depth += 1
            if depth == 1:
                start = position
        elif char == ")":
            depth -= 1
            if depth == 0 and groups and groups[-1][1] is None \
                    and not cell[end:start].strip():
                groups[-1] = (groups[-1][0], cell[start + 1:position])
        position += 1
    return groups


def _dotted_names(token: str) -> "list[str]":
    return [name for name in expand_alternatives(token)
            if _DOTTED_RE.fullmatch(name)]


def _cell_entries(cell: str) -> "list[str]":
    return [name for token, _ in entry_groups(cell)
            for name in _dotted_names(token)]


def _member_lists(cell: str) -> "list[tuple[str, list[str]]]":
    """``(entry, members)`` for every entry followed by a group; an
    arrow group's names are entries and come back with owner ``""``."""
    lists = []
    for token, group in entry_groups(cell):
        if group is None:
            continue
        members = [name for member in _BACKTICK_RE.findall(
                       strip_parentheticals(group))
                   for name in _dotted_names(member)]
        if group.lstrip().startswith("→"):
            lists.append(("", members))
        else:
            lists.extend((owner, members) for owner in _dotted_names(token))
    return lists


def module_map_rows(text: str) -> "list[tuple[str, str]]":
    """``(package, entry-point cell)`` per row of the "Module map"
    table."""
    if "## Module map" not in text:
        return []
    section = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("| \t").split("|")]
        package = _BACKTICK_RE.fullmatch(cells[0])
        if package is not None:  # not the header or separator row
            rows.append((package.group(1), cells[-1]))
    return rows


def module_map_entries(text: str) -> "list[tuple[str, list[str]]]":
    """``(package, entry points)`` per row of the "Module map" table."""
    return [(package, _cell_entries(cell))
            for package, cell in module_map_rows(text)]


_MISSING = object()


def _find(scopes, dotted: str):
    """The object *dotted* names in the first scope that has it, or
    ``_MISSING``."""
    for scope in scopes:
        found = scope
        for part in dotted.split("."):
            found = getattr(found, part, _MISSING)
            if found is _MISSING:
                break
        if found is not _MISSING:
            return found
    return _MISSING


def _has_member(owner, name: str) -> bool:
    """An attribute of *owner*, or a ``self.<name>`` assignment in
    its class source (an instance attribute set in ``__init__``)."""
    if hasattr(owner, name):
        return True
    if not inspect.isclass(owner):
        return False
    assigned = re.compile(
        rf"\bself\.{re.escape(name)}\s*(?::[^=\n]*)?=(?!=)")
    return bool(assigned.search(inspect.getsource(owner)))


def check_module_map(text: str) -> "list[str]":
    """Entry points and members of the module map that name nothing
    importable."""
    rows = module_map_rows(text)
    if not rows:
        return ["docs/api.md has no \"Module map\" table"]
    errors: list[str] = []
    sys.path.insert(0, str(REPO_ROOT))  # the tools.* rows
    try:
        for package_name, cell in rows:
            package = importlib.import_module(package_name)
            # Importing a submodule also binds it on the package, so
            # ``fig7.run_fig7`` resolves from the package itself.
            scopes = [package] + [
                importlib.import_module(f"{package_name}.{info.name}")
                for info in pkgutil.iter_modules(package.__path__)
                if info.name != "__main__"
            ]
            entries = _cell_entries(cell)
            for owner, members in _member_lists(cell):
                if not owner:
                    entries += members
                    continue
                found = _find(scopes, owner)
                errors += [
                    f"docs/api.md module map: `{owner}` (`{name}`): "
                    f"{owner} has no attribute {name}"
                    for name in members
                    if found is not _MISSING and not _has_member(found, name)
                ]
            errors += [
                f"docs/api.md module map: `{name}` is not an attribute "
                f"of {package_name} or its submodules"
                for name in entries if _find(scopes, name) is _MISSING
            ]
    finally:
        sys.path.remove(str(REPO_ROOT))
    return errors


def signature_keywords(text: str, opener: str) -> "list[list[str]]":
    """The ``name=`` keywords of every ``opener...)`` call in *text*'s
    fenced code blocks, comments stripped, one list per call."""
    calls = []
    for block in _CODE_BLOCK_RE.findall(text):
        code = "\n".join(line.split("#", 1)[0]
                         for line in block.splitlines())
        start = code.find(opener)
        while start != -1:
            depth = 0
            for end in range(start + len(opener) - 1, len(code)):
                depth += {"(": 1, ")": -1}.get(code[end], 0)
                if depth == 0:
                    break
            calls.append(_KEYWORD_RE.findall(code[start + len(opener):end]))
            start = code.find(opener, end)
    return calls


def check_signatures(text: str) -> "list[str]":
    """Signature-block keywords that are not parameters of their
    callable (and openers with no block at all)."""
    errors: list[str] = []
    for opener, (module, qualname) in SIGNATURE_BLOCKS.items():
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        parameters = inspect.signature(target).parameters
        calls = signature_keywords(text, opener)
        if not calls:
            errors.append(f"docs/api.md has no {opener}...) signature "
                          f"block")
        for name in (name for keywords in calls for name in keywords):
            if name not in parameters:
                errors.append(
                    f"docs/api.md: `{name}=` in a {opener}...) block is "
                    f"not a parameter of {qualname}"
                )
    return errors


def run_blocks(blocks) -> None:
    """Execute every README python block in one shared namespace."""
    namespace: dict = {"__name__": "__readme__"}
    for position, (tag, code) in enumerate(blocks):
        label = tag or f"block {position}"
        print(f"-- executing README python {label}")
        try:
            exec(compile(code, f"README.md:{label}", "exec"), namespace)
        except Exception as error:
            raise SystemExit(
                f"README quickstart block {label!r} failed: {error!r}"
            ) from error


def run_example() -> None:
    """Import the example (the shared code path) and run its main()."""
    sys.path.insert(0, str(REPO_ROOT / "examples"))
    try:
        import quickstart
    finally:
        sys.path.pop(0)
    print("-- executing examples/quickstart.py main()")
    quickstart.main()


def main() -> int:
    blocks = extract_readme_blocks(README.read_text())
    if not blocks:
        print("FAIL: README.md has no fenced python blocks",
              file=sys.stderr)
        return 1
    sections = extract_example_sections(QUICKSTART.read_text())
    if not sections:
        print("FAIL: examples/quickstart.py has no [readme:*] sections",
              file=sys.stderr)
        return 1
    api_doc = API_DOC.read_text()
    errors = (check_sync(blocks, sections)
              + check_module_map(api_doc)
              + check_signatures(api_doc))
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    run_blocks(blocks)
    run_example()
    print(f"OK: {len(blocks)} README blocks executed, "
          f"{len(sections)} in sync with examples/quickstart.py, "
          f"module map and signature blocks resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
