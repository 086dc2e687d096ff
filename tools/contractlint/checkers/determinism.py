"""CL1xx — determinism: no un-keyed entropy on decision paths.

The binding contract (DESIGN.md, "Determinism"): every decision the
library makes is a pure function of explicit seeds and keys — mapping
reports are bit-identical for any scheduling, backend, engine or
process count.  Statically that means nothing under ``src/repro`` may
draw from an entropy source that is not keyed by an argument:

* ``CL101`` — wall-clock / raw-entropy calls whose result can never be
  keyed: ``time.time``/``time.time_ns``, ``datetime.now``/``utcnow``/
  ``today``, ``os.urandom``, ``uuid.uuid1``/``uuid4``, anything from
  ``secrets``.
* ``CL102`` — RNG constructed without a seed: ``np.random.default_rng()``
  or ``random.Random()`` with no argument (or an explicit ``None``
  first argument) hands the OS entropy pool a vote in a decision.
* ``CL103`` — draws from the hidden *global* RNG state:
  ``np.random.<draw>()`` module-level functions and ``random.<draw>()``
  module-level functions (``random.Random`` construction is CL102's
  business; ``np.random.default_rng``/``Generator`` are constructors,
  not draws).
* ``CL104`` — a sequential RNG on the keyed decision path: any
  ``np.random.default_rng(...)`` call (seeded or not) or
  ``np.random.Generator`` parameter in ``src/repro/core/``,
  ``cam/array.py``, ``cam/variation.py``, ``cam/sense_amp.py`` or
  ``baselines/edam.py``.  Every draw there is keyed by
  ``(seed, query_key, pass)`` (:mod:`repro.cam.keyed_noise`); a stream
  whose draws depend on call order would make decisions depend on
  batching.  ``cam/defects.py`` keeps its generator: it injects
  input faults, not decision noise.

* ``CL105`` — a re-encoded rotation on the decision path: any
  ``np.roll`` call in ``src/repro/core/`` or ``baselines/edam.py``.
  A TASR/SR pass's counts come from the kernel's one-encode entry,
  ``mismatch_counts_batch(..., rotations=)`` (the read loaded once and
  rotated in place, Fig. 4); a rolled copy of the reads would be
  encoded again for every rotation.

* ``CL106`` — per-read object churn on the batch path: a
  ``ReadMapping(...)`` or ``MatchOutcome(...)`` construction, or a
  report fold (``.add(...)`` on a receiver named ``*report``, or with a
  per-read argument: a ``ReadMapping(...)``, an element of
  ``X.mappings``), inside a ``for``/``while`` body or a comprehension
  in ``src/repro/core/pipeline.py`` or ``src/repro/service/``.  A batch
  report is built and folded as columns (one ``MappingReport.add`` per
  micro-batch).  The rule matches names, not costs: it is a guard
  against the per-read loops coming back, not a performance guarantee.
  The one intended per-read builder is the lazy view
  (``_ReadColumns.mappings``), which maps a one-object helper over the
  columns with ``map(...)`` — a form the rule deliberately leaves
  alone.  In ``src/repro/service/`` it also flags a ``.submit(...)``
  call in a loop or comprehension: ``submit_many`` validates and
  accepts whole micro-batch slices, and ``submit`` is the one-read
  entry for callers, not a building block of the service's own feeds.

``time.perf_counter`` is deliberately *not* flagged: it is the
monotonic latency instrument of the stats/autotune paths, and the
cross-backend/engine bit-identity contract (enforced at runtime by the
equivalence suites) is exactly the proof that timing never reaches a
decision.
"""

from __future__ import annotations

import ast

from tools.contractlint.core import Checker, FileContext, Finding, RepoContext, register

#: (module, attr) calls that are wall-clock or raw entropy, always.
_FORBIDDEN_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

#: Draw functions living on the hidden module-global RNG state.
_NP_RANDOM_DRAWS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "bytes",
    "uniform", "normal", "standard_normal", "poisson", "binomial",
    "exponential", "beta", "gamma", "integers",
}
_RANDOM_MODULE_DRAWS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "normalvariate", "gauss", "betavariate",
    "expovariate", "gammavariate", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "triangular", "getrandbits",
    "seed", "randbytes",
}

#: RNG constructors that must receive a seed argument.
_SEEDED_CONSTRUCTORS = {
    ("random", "default_rng"),   # np.random.default_rng
    ("random", "Random"),        # random.Random
    ("random", "SystemRandom"),  # never seedable — caught separately
}


def _dotted(node: ast.AST) -> "tuple[str, ...]":
    """('np', 'random', 'default_rng') for np.random.default_rng."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _is_unseeded(call: ast.Call) -> bool:
    if not call.args and not call.keywords:
        return True
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return all(kw.arg != "seed" or (isinstance(kw.value, ast.Constant)
                                    and kw.value.value is None)
               for kw in call.keywords)


@register
class DeterminismChecker(Checker):
    name = "determinism"
    codes = {
        "CL101": "wall-clock/raw-entropy call (time.time, os.urandom, "
                 "uuid4, datetime.now, secrets) on a src/repro path",
        "CL102": "RNG constructed without a seed "
                 "(default_rng()/random.Random() must be keyed)",
        "CL103": "draw from the hidden module-global RNG state "
                 "(np.random.*/random.* module functions)",
    }
    scope = ("src/repro",)

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        findings: "list[Finding]" = []

        def emit(node: ast.AST, code: str, message: str) -> None:
            findings.append(Finding(path=ctx.rel_path, line=node.lineno,
                                    col=node.col_offset, code=code,
                                    message=message))

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if len(dotted) < 2:
                continue
            head, tail = dotted[0], dotted[-2:]
            callname = ".".join(dotted)
            if head == "secrets":
                emit(node, "CL101",
                     f"'{callname}' is raw OS entropy; decisions must "
                     f"be keyed by explicit seeds")
            elif tail in _FORBIDDEN_CALLS or dotted[-1] == "urandom":
                emit(node, "CL101",
                     f"'{callname}' reads wall-clock/OS entropy; "
                     f"decisions must be keyed by explicit seeds")
            elif dotted[-1] == "SystemRandom":
                emit(node, "CL102",
                     f"'{callname}' can never be seeded; use "
                     f"random.Random(seed) or np.random.default_rng(seed)")
            elif tail in _SEEDED_CONSTRUCTORS or dotted[-1] == "default_rng":
                if _is_unseeded(node):
                    emit(node, "CL102",
                         f"'{callname}()' without a seed draws from OS "
                         f"entropy; pass an explicit seed/key")
            elif (len(dotted) >= 2 and dotted[-2] == "random"
                  and dotted[-1] in _NP_RANDOM_DRAWS):
                emit(node, "CL103",
                     f"'{callname}' uses the hidden global RNG state; "
                     f"draw from an explicitly seeded Generator")
            elif head == "random" and len(dotted) == 2 \
                    and dotted[1] in _RANDOM_MODULE_DRAWS:
                emit(node, "CL103",
                     f"'{callname}' uses the hidden global RNG state; "
                     f"draw from an explicit random.Random(seed)")
        return findings


#: Modules whose every draw must be keyed (the search decision path).
KEYED_SCOPE = (
    "src/repro/core",
    "src/repro/cam/array.py",
    "src/repro/cam/variation.py",
    "src/repro/cam/sense_amp.py",
    "src/repro/baselines/edam.py",
)


def _annotation_text(node: "ast.expr | None") -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ast.unparse(node)


@register
class KeyedNoiseChecker(Checker):
    name = "keyed-noise"
    codes = {
        "CL104": "sequential RNG (np.random.default_rng call or "
                 "np.random.Generator parameter) on the keyed search "
                 "decision path",
    }
    scope = KEYED_SCOPE

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        findings: "list[Finding]" = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and _dotted(node.func)[-1:] == ("default_rng",):
                findings.append(Finding(
                    path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL104",
                    message=f"'{'.'.join(_dotted(node.func))}()' is a "
                            f"sequential stream; key every draw by "
                            f"(seed, query_key, pass)"))
            elif isinstance(node, ast.arg) \
                    and "random.Generator" in _annotation_text(
                        node.annotation):
                findings.append(Finding(
                    path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL104",
                    message=f"parameter '{node.arg}' takes a sequential "
                            f"np.random.Generator; key every draw by "
                            f"(seed, query_key, pass)"))
        return findings


#: Modules whose rotated passes must come from the one-encode entry.
ROTATION_SCOPE = (
    "src/repro/core",
    "src/repro/baselines/edam.py",
)

#: Call spellings of ``numpy.roll``.
_ROLL_CALLS = {("np", "roll"), ("numpy", "roll"), ("roll",)}


@register
class OneEncodeRotationChecker(Checker):
    name = "one-encode-rotation"
    codes = {
        "CL105": "np.roll on the matcher decision path (rotated counts "
                 "come from mismatch_counts_batch(..., rotations=))",
    }
    scope = ROTATION_SCOPE

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        return [
            Finding(path=ctx.rel_path, line=node.lineno,
                    col=node.col_offset, code="CL105",
                    message=f"'{'.'.join(_dotted(node.func))}()' re-encodes "
                            f"a rotated copy of the reads; take rotated "
                            f"counts from mismatch_counts_batch(..., "
                            f"rotations=)")
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
            and _dotted(node.func) in _ROLL_CALLS
        ]


#: Modules whose batch reports are built and folded as columns.
#: The service layer, whose feeds go through ``submit_many``.
SERVICE_SCOPE = "src/repro/service"

BATCH_PATH_SCOPE = (
    "src/repro/core/pipeline.py",
    SERVICE_SCOPE,
)

#: Per-read result types a batch path must not build in a loop.
_PER_READ_TYPES = {"ReadMapping", "MatchOutcome"}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _per_read_names(tree: ast.AST) -> "set[str]":
    """Names a loop or comprehension binds to the elements of some
    ``X.mappings`` (``for mapping in report.mappings``)."""
    names: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                and isinstance(node.iter, ast.Attribute) \
                and node.iter.attr == "mappings":
            names.update(n.id for n in ast.walk(node.target)
                         if isinstance(n, ast.Name))
    return names


def _is_report_fold(call: ast.Call, per_read: "set[str]") -> bool:
    """``.add(...)`` on a report, or with one read's result."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "add"):
        return False
    receiver = call.func.value
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
    name = _dotted(receiver)[-1:]
    if name and name[0].lower().endswith("report"):
        return True
    for arg in call.args:
        if isinstance(arg, ast.Call) \
                and _dotted(arg.func)[-1:] == ("ReadMapping",):
            return True
        if isinstance(arg, ast.Subscript) \
                and isinstance(arg.value, ast.Attribute) \
                and arg.value.attr == "mappings":
            return True
        if isinstance(arg, ast.Name) and arg.id in per_read:
            return True
    return False


def _repeated_calls(tree: ast.AST) -> "list[ast.Call]":
    """Calls inside a loop body or a comprehension (nested scopes
    included: a function defined in a loop body runs per iteration
    too)."""
    calls: "list[ast.Call]" = []
    for node in ast.walk(tree):
        if isinstance(node, _LOOPS):
            roots = [*node.body, *node.orelse]
        elif isinstance(node, _COMPREHENSIONS):
            roots = [node]
        else:
            continue
        for root in roots:
            calls.extend(child for child in ast.walk(root)
                         if isinstance(child, ast.Call))
    return calls


@register
class PerReadFoldChecker(Checker):
    name = "per-read-fold"
    codes = {
        "CL106": "per-read ReadMapping/MatchOutcome construction, "
                 "report .add() fold, or service .submit() in a loop on "
                 "the batch path",
    }
    scope = BATCH_PATH_SCOPE

    def check(self, ctx: FileContext, repo: RepoContext) -> "list[Finding]":
        findings: "dict[tuple[int, int], Finding]" = {}
        per_read = _per_read_names(ctx.tree)
        for call in _repeated_calls(ctx.tree):
            name = _dotted(call.func)[-1:]
            if name and name[0] in _PER_READ_TYPES:
                message = (f"'{name[0]}(...)' built per read in a loop; "
                           f"keep batch results as columns and build "
                           f"the per-read view lazily")
            elif _is_report_fold(call, per_read):
                message = ("'.add()' in a loop folds per read; fold "
                           "each batch report with one "
                           "MappingReport.add(report)")
            elif (isinstance(call.func, ast.Attribute)
                  and call.func.attr == "submit"
                  and ctx.rel_path.startswith(SERVICE_SCOPE)):
                message = ("'.submit()' in a loop feeds the session one "
                           "read at a time; hand micro-batch slices to "
                           "submit_many")
            else:
                continue
            # A call nested in two loops is reported once.
            findings[(call.lineno, call.col_offset)] = Finding(
                path=ctx.rel_path, line=call.lineno, col=call.col_offset,
                code="CL106", message=message)
        return list(findings.values())
