"""CL5xx — layering: imports point down, never up.

The binding contract (ROADMAP north star: "refactor freely at
production scale"): the package DAG has a declared layer order, and a
lower layer importing a higher one at *module level* couples the CAM
physics to the service veneer and eventually deadlocks the import
graph.  Function-level imports are the sanctioned escape hatch for
genuine cycles (``knobs`` checking a reference source against
``cam.array``'s ``StoredReference``) and are deliberately not checked.

* ``CL501`` — a module in layer *n* imports a package in a layer
  above *n* at module level.
* ``CL502`` — a module outside the declared layer map: new top-level
  packages must declare their layer here (one line) before they land.

``arch`` and ``core`` share a rank by design — the accelerator model
wraps the matcher while the pipeline consumes the autotune plans — as
do the sibling leaf stacks (``baselines``/``refstore``,
``eval``/``service``); same-rank imports are legal in both directions.
"""

from __future__ import annotations

import ast

from tools.contractlint.core import Checker, FileContext, Finding, RepoContext, register

#: package (or top-level module) under ``repro`` -> layer rank.
#: Lower ranks must not module-level-import higher ranks.
LAYERS: "dict[str, int]" = {
    "errors": 0,
    "constants": 0,
    "genome": 1,
    "cost": 1,
    "faults": 1,
    "distance": 2,
    "kernels": 3,
    "knobs": 4,
    "cam": 5,
    "arch": 6,
    "core": 6,
    "baselines": 7,
    "refstore": 7,
    "eval": 8,
    "service": 8,
    "experiments": 9,
}


def _module_layer_key(rel_path: str) -> "str | None":
    """'src/repro/cam/array.py' -> 'cam'; 'src/repro/knobs.py' -> 'knobs'."""
    parts = rel_path.split("/")
    if parts[:2] != ["src", "repro"] or len(parts) < 3:
        return None
    head = parts[2]
    if head == "__init__.py":
        return None  # the package facade re-exports everything, by design
    return head[:-3] if head.endswith(".py") else head


@register
class LayeringChecker(Checker):
    name = "layering"
    codes = {
        "CL501": "module-level import of a higher layer (imports must "
                 "point down; function-level imports are the escape "
                 "hatch for cycles)",
        "CL502": "module outside the declared layer map (declare the "
                 "new package's layer in tools/contractlint)",
    }
    scope = ("src/repro",)

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        key = _module_layer_key(ctx.rel_path)
        if key is None:
            return []
        findings: "list[Finding]" = []
        rank = LAYERS.get(key)
        if rank is None:
            return [Finding(
                path=ctx.rel_path, line=1, col=0, code="CL502",
                message=f"package {key!r} has no declared layer; add it "
                        f"to tools/contractlint/checkers/layering.py",
            )]
        for node in ctx.tree.body:
            modules: "list[tuple[str, int]]" = []
            if isinstance(node, ast.Import):
                modules = [(alias.name, node.lineno)
                           for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module or "", node.lineno)]
            for dotted, lineno in modules:
                parts = dotted.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                target = parts[1]
                target_rank = LAYERS.get(target)
                if target_rank is None:
                    continue  # the imported side reports its own CL502
                if target_rank > rank:
                    findings.append(Finding(
                        path=ctx.rel_path, line=lineno, col=0,
                        code="CL501",
                        message=f"'repro.{key}' (layer {rank}) imports "
                                f"'repro.{target}' (layer {target_rank}) "
                                f"at module level; imports must point "
                                f"down (move it into the function that "
                                f"needs it)",
                    ))
        return findings
