"""Deterministic, seeded fault injection for the service stack.

``repro.faults`` turns the repo's standing contracts — surface as a
documented typed error, or tolerate bit-identically; never leak a
resource — into actively falsified properties:

* :mod:`repro.faults.plan` — typed faults and seed-keyed
  :class:`FaultPlan` schedules (same seed, same schedule);
* :mod:`repro.faults.hooks` — the named injection points threaded
  through the refstore/service modules (:func:`fire` is a
  no-op unless a plan is :func:`arm`-ed);
* :mod:`repro.faults.checker` — the :class:`InvariantChecker` judging
  every chaos run against the surface-or-tolerate trichotomy plus
  resource hygiene (import it explicitly; it is not re-exported here
  because it builds on the service stack, which itself imports these
  hooks);
* :mod:`repro.faults.scenarios` — small deterministic workloads, one
  per route through the service stack, for the chaos harness
  (``tools/chaos_soak.py``) and the tier-1 fixtures
  (``tests/faults/``).

This package root stays import-light (plan + hooks only) so the
production hook sites can import it without cycles.
"""

from repro.faults.hooks import FaultInjector, arm, fire
from repro.faults.plan import (
    FAULT_SPECS,
    HOOK_POINTS,
    Fault,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FAULT_SPECS",
    "HOOK_POINTS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "arm",
    "fire",
]
