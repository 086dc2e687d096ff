"""Contract linter: static enforcement of the repo's binding contracts.

The reproduction's value proposition is a set of *contracts* — bit-
identical decisions under keyed noise for any scheduling/backend/
worker count, validated service knobs, a typed fail-loud error hierarchy,
registered fault-hook points, and a downward-only import layering.
Every one of them used to be enforced only by runtime tests and
reviewer vigilance, and at least one real bug (a falsy ``or`` that
silently swallowed ``max_workers=0``) slipped through exactly that
gap.  This package checks the contracts *statically*, over the ``ast``
of the source tree, before any test runs.

Usage::

    python -m tools.contractlint              # lint the repo, exit 1 on findings
    python -m tools.contractlint --json out.json
    python -m tools.contractlint --list-codes

Architecture (see DESIGN.md, "Static contract enforcement"):

* :mod:`tools.contractlint.core` — the engine: file walking, per-line
  suppression comments (``# contractlint: disable=CLxxx -- reason``),
  config/allowlists from ``pyproject.toml``, and the checker registry.
* :mod:`tools.contractlint.checkers` — one module per contract family,
  each registering a :class:`~tools.contractlint.core.Checker` with
  stable ``CLxxx`` error codes: ``CL1xx`` determinism, ``CL3xx`` knob
  hygiene, ``CL4xx`` error contract, ``CL5xx`` layering, ``CL6xx``
  fault-hook consistency (``CL0xx`` are the tool's own meta codes;
  ``CL2xx`` is retired).

The package is intentionally pure-stdlib and never imports
:mod:`repro`: repo facts it needs (knob names, hook-point names) are
read from the *source* of ``src/repro/knobs.py`` and
``src/repro/faults/plan.py``, so the linter runs on a tree that is too
broken to import.
"""

from tools.contractlint.core import (
    Checker,
    FileContext,
    Finding,
    LintConfig,
    RepoContext,
    all_codes,
    lint_source,
    registered_checkers,
    run_lint,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintConfig",
    "RepoContext",
    "all_codes",
    "lint_source",
    "registered_checkers",
    "run_lint",
]
