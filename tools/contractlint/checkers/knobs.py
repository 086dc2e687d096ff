"""CL3xx — knob hygiene: ``None`` means autotune, falsy means *bug*.

The binding contract (``repro/knobs.py``): the cross-layer constructor
knobs (``micro_batch``, ``compaction``) treat ``None`` as
"autotune/disable" and validate every explicit value through
``validate_service_knobs``.  The one bug class this permits is
*falsy-swallowing*: ``micro_batch or plan.micro_batch`` silently turns
the invalid explicit value ``0`` into an autotune request instead of
the loud ``CamConfigError`` the contract promises — the exact bug a
worker-count knob once shipped and later reverted.  The knob name list is read from the
parameter list of ``validate_service_knobs`` itself, so adding a knob
to the gate automatically extends the lint.

* ``CL301`` — ``<knob> or <default>`` (or the ternary spelling
  ``<knob> if <knob> else <default>``): distinguishes ``None`` from
  falsy explicit values by accident, never on purpose.  Use
  ``x if x is not None else default``.
* ``CL302`` — truthiness test of a knob (``if not compaction:``,
  ``while micro_batch:``): same falsy/None conflation one branch
  earlier.  Test ``is None`` / ``is not None`` explicitly.
* ``CL303`` — a knob-named parameter with a *falsy* non-``None``
  default (``compaction=""``, ``micro_batch=0``): indistinguishable from
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
        # self.micro_batch / config._micro_batch style attributes.
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


#: Parameters whose values reach the search as given: a truncated
#: threshold runs another ``T``, a truncated key or seed another noise
#: stream, a truncated rotation another pass.
GUARDED_PARAMETERS = ("threshold", "thresholds", "first_read_index",
                      "query_keys", "seed", "rotation", "rotations")

#: The one module allowed to coerce them (after validating).
GATE_MODULE = "src/repro/knobs.py"


def _int_dtype(node: "ast.AST | None") -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _loop_variables(function: ast.AST,
                    guarded: "set[str]") -> "dict[str, str]":
    """Names bound by a ``for`` loop or comprehension in *function*
    that iterates a guarded parameter, mapped to that parameter."""
    bound: "dict[str, str]" = {}
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                and isinstance(node.iter, ast.Name) \
                and node.iter.id in guarded:
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    bound[target.id] = node.iter.id
    return bound


def _coerced(call: ast.Call) -> "ast.AST | None":
    """The operand *call* truncates to ``int``, if it is one of
    ``int(x)``, ``np.asarray(x, dtype=int)`` or ``x.astype(int)``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "int" and call.args:
        return call.args[0]
    if isinstance(func, ast.Attribute) and func.attr in ("asarray", "array") \
            and call.args:
        dtype = next((k.value for k in call.keywords if k.arg == "dtype"),
                     call.args[1] if len(call.args) > 1 else None)
        return call.args[0] if _int_dtype(dtype) else None
    if isinstance(func, ast.Attribute) and func.attr == "astype" \
            and call.args and _int_dtype(call.args[0]):
        return func.value
    return None


@register
class ThresholdCoercionChecker(Checker):
    name = "threshold-coercion"
    codes = {
        "CL304": "truncating int coercion of a threshold or determinism "
                 "key parameter, or of a loop variable over one "
                 "(validate through repro.knobs instead)",
    }
    scope = ("src/repro",)

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        if ctx.rel_path == GATE_MODULE:
            return []
        found: "dict[tuple[int, int], Finding]" = {}
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = function.args
            guarded = {a.arg for a in (*args.posonlyargs, *args.args,
                                       *args.kwonlyargs)
                       if a.arg in GUARDED_PARAMETERS}
            if not guarded:
                continue
            loop_variables = _loop_variables(function, guarded)
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                operand = _coerced(node)
                if not isinstance(operand, ast.Name):
                    continue
                if operand.id in guarded:
                    what = f"parameter {operand.id!r}"
                elif operand.id in loop_variables:
                    what = (f"an element of parameter "
                            f"{loop_variables[operand.id]!r}")
                else:
                    continue
                found[(node.lineno, node.col_offset)] = Finding(
                    path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL304",
                    message=f"'{ast.unparse(node)}' truncates {what} "
                            f"(2.7 -> 2, True -> 1); validate it with "
                            f"repro.knobs (check_threshold, "
                            f"check_thresholds, check_integer)")
        return list(found.values())
