"""CL3xx — knob hygiene: ``None`` means autotune, falsy means *bug*.

The binding contract (``repro/knobs.py``): the cross-layer constructor
knobs (``micro_batch``, ``compaction``, ``max_workers``, ``backend``)
treat ``None`` as "autotune/disable" and validate every explicit value
through ``validate_service_knobs``.  The one bug class this permits is
*falsy-swallowing*: ``max_workers or plan.max_workers`` silently turns
the invalid explicit value ``0`` into an autotune request instead of
the loud ``CamConfigError`` the contract promises — the exact bug PR 5
shipped and later reverted.  The knob name list is read from the
parameter list of ``validate_service_knobs`` itself, so adding a knob
to the gate automatically extends the lint.

* ``CL301`` — ``<knob> or <default>`` (or the ternary spelling
  ``<knob> if <knob> else <default>``): distinguishes ``None`` from
  falsy explicit values by accident, never on purpose.  Use
  ``x if x is not None else default``.
* ``CL302`` — truthiness test of a knob (``if not backend:``,
  ``while micro_batch:``): same falsy/None conflation one branch
  earlier.  Test ``is None`` / ``is not None`` explicitly.
* ``CL303`` — a knob-named parameter with a *falsy* non-``None``
  default (``backend=""``, ``max_workers=0``): indistinguishable from
  "unset" to any downstream truthiness check, and invalid per the
  validation gate anyway.
"""

from __future__ import annotations

import ast

from tools.contractlint.core import Checker, FileContext, Finding, RepoContext, register


def _knob_name(node: ast.AST, knobs: "tuple[str, ...]") -> "str | None":
    if isinstance(node, ast.Name) and node.id in knobs:
        return node.id
    if isinstance(node, ast.Attribute):
        # self.micro_batch / config._max_workers style attributes.
        attr = node.attr.lstrip("_")
        if attr in knobs:
            return node.attr
    return None


def _is_falsy_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and node.value is not None
            and not node.value)


@register
class KnobChecker(Checker):
    name = "knobs"
    codes = {
        "CL301": "falsy-'or' on a service knob (swallows explicit 0/'' "
                 "instead of raising; use 'is None' — the PR 5 bug class)",
        "CL302": "truthiness test of a service knob (None and falsy "
                 "explicit values must not be conflated; test 'is None')",
        "CL303": "knob-named parameter with a falsy non-None default "
                 "(unset must be spelled None so validation engages)",
    }
    scope = ("src/repro", "benchmarks", "tools", "examples")

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        knobs = repo.knob_names
        findings: "list[Finding]" = []

        def emit(node: ast.AST, code: str, message: str) -> None:
            findings.append(Finding(path=ctx.rel_path, line=node.lineno,
                                    col=node.col_offset, code=code,
                                    message=message))

        def check_condition(test: ast.AST) -> None:
            operands = (test.values if isinstance(test, ast.BoolOp)
                        else [test])
            for operand in operands:
                if isinstance(operand, ast.UnaryOp) \
                        and isinstance(operand.op, ast.Not):
                    operand = operand.operand
                name = _knob_name(operand, knobs)
                if name is not None:
                    emit(operand, "CL302",
                         f"truthiness test of knob {name!r} conflates "
                         f"None with falsy explicit values; compare "
                         f"'is None' explicitly")

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for operand in node.values[:-1]:
                    name = _knob_name(operand, knobs)
                    if name is not None:
                        emit(node, "CL301",
                             f"'{name} or ...' silently swallows falsy "
                             f"explicit values (the PR 5 max_workers=0 "
                             f"bug); use '{name} if {name} is not None "
                             f"else ...'")
            elif isinstance(node, ast.IfExp):
                name = _knob_name(node.test, knobs)
                if name is not None:
                    emit(node, "CL301",
                         f"'... if {name} else ...' swallows falsy "
                         f"explicit values; test '{name} is not None'")
            elif isinstance(node, (ast.If, ast.While)):
                check_condition(node.test)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = args.defaults
                for arg, default in zip(positional[len(positional)
                                                   - len(defaults):],
                                        defaults, strict=True):
                    if arg.arg in knobs and _is_falsy_constant(default):
                        emit(default, "CL303",
                             f"knob parameter {arg.arg!r} defaults to a "
                             f"falsy value; spell 'unset' as None")
                for arg, default in zip(args.kwonlyargs, args.kw_defaults,
                                        strict=True):
                    if (default is not None and arg.arg in knobs
                            and _is_falsy_constant(default)):
                        emit(default, "CL303",
                             f"knob parameter {arg.arg!r} defaults to a "
                             f"falsy value; spell 'unset' as None")
        return findings
