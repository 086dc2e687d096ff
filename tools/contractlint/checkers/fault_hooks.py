"""CL6xx — fault-hook consistency: every fire() names a real point.

The binding contract (DESIGN.md, "Fault model"): the four injection
hook points are *registered* in ``repro/faults/plan.py`` —
``HOOK_POINTS`` is the single source of truth the arming path
validates against at runtime.  But a production ``fire("typo")`` only
fails when a chaos plan happens to arm, and a registered point nobody
fires is a hole in the chaos surface that no runtime check can see.
Both are statically decidable; the point names are read from the
*source* of plan.py, never imported.

* ``CL601`` — a ``fire(...)``/``_fire_fault(...)`` call whose literal
  point name is not registered in ``HOOK_POINTS``.
* ``CL602`` — a fire call whose point argument is not a string
  literal: hook names must be statically checkable (the whole point
  of this pass).
* ``CL603`` — a registered hook point with no fire site anywhere in
  the tree (dead registration; repo-wide, so it only runs on a full
  scan).
* ``CL604`` — a hook-point string in a scenario ``reachable_points``
  tuple or a ``FaultSpec(points=...)`` literal that is not registered.
"""

from __future__ import annotations

import ast

from tools.contractlint.core import Checker, FileContext, Finding, RepoContext, register

#: Names a production fire call goes by (`fire` itself, and the
#: conventional aliased import `from repro.faults.hooks import fire as
#: _fire_fault`).
_FIRE_NAMES = {"fire", "_fire_fault"}

#: The framework package itself (defines fire(); its docstrings and
#: plan tables are not call sites to police).
_FRAMEWORK_PREFIX = "src/repro/faults/"


def _fire_call_name(node: ast.Call) -> "str | None":
    if isinstance(node.func, ast.Name) and node.func.id in _FIRE_NAMES:
        return node.func.id
    if isinstance(node.func, ast.Attribute) and node.func.attr == "fire":
        return node.func.attr
    return None


@register
class FaultHookChecker(Checker):
    name = "fault-hooks"
    codes = {
        "CL601": "fire() names an unregistered hook point (register it "
                 "in repro/faults/plan.py HOOK_POINTS first)",
        "CL602": "fire() point argument is not a string literal (hook "
                 "names must be statically checkable)",
        "CL603": "registered hook point is never fired anywhere "
                 "(dead registration widens the chaos surface on paper "
                 "only)",
        "CL604": "reachable_points/FaultSpec points entry is not a "
                 "registered hook point",
    }
    scope = ("src/repro", "tools", "benchmarks")

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        findings: "list[Finding]" = []
        fired: "set[str]" = repo.shared.setdefault(
            "fault_hooks.fired", set())  # type: ignore[assignment]
        points = repo.hook_points
        in_framework = ctx.rel_path.startswith(_FRAMEWORK_PREFIX)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "reachable_points" and points:
                findings.extend(self._check_point_tuples(
                    ctx, node, points, "reachable_points"))
                continue
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "FaultSpec" and points):
                for kw in node.keywords:
                    if kw.arg == "points" and isinstance(kw.value, ast.Tuple):
                        findings.extend(self._check_tuple(
                            ctx, kw.value, points, "FaultSpec points"))
                continue
            if in_framework or _fire_call_name(node) is None \
                    or not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                findings.append(Finding(
                    path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL602",
                    message="fire() with a computed point name cannot "
                            "be checked statically; pass the "
                            "registered literal",
                ))
                continue
            fired.add(first.value)
            if points and first.value not in points:
                findings.append(Finding(
                    path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL601",
                    message=f"fire({first.value!r}) names an "
                            f"unregistered hook point; known: "
                            f"{list(points)}",
                ))
        return findings

    def _check_point_tuples(self, ctx: FileContext, func: ast.FunctionDef,
                            points: "tuple[str, ...]",
                            where: str) -> "list[Finding]":
        findings: "list[Finding]" = []
        for node in ast.walk(func):
            value = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Return)):
                value = node.value
            if isinstance(value, ast.Tuple):
                findings.extend(self._check_tuple(ctx, value, points, where))
        return findings

    def _check_tuple(self, ctx: FileContext, tup: ast.Tuple,
                     points: "tuple[str, ...]",
                     where: str) -> "list[Finding]":
        findings: "list[Finding]" = []
        for elt in tup.elts:
            if (isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    and elt.value not in points):
                findings.append(Finding(
                    path=ctx.rel_path, line=elt.lineno,
                    col=elt.col_offset, code="CL604",
                    message=f"{where} entry {elt.value!r} is not a "
                            f"registered hook point; known: "
                            f"{list(points)}",
                ))
        return findings

    def finalize(self, repo: RepoContext) -> "list[Finding]":
        fired = repo.shared.get("fault_hooks.fired", set())
        findings: "list[Finding]" = []
        for point in repo.hook_points:
            if point not in fired:
                findings.append(Finding(
                    path="src/repro/faults/plan.py", line=1, col=0,
                    code="CL603",
                    message=f"hook point {point!r} is registered but "
                            f"never fired by any production module",
                ))
        return findings
