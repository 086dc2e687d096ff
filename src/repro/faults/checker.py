"""The chaos-run judge: surface-or-tolerate trichotomy + hygiene.

After every armed run the stack owes exactly one of three outcomes per
*fired* fault (scheduled faults whose hit index was never reached are
vacuous):

* **surfaced** — the run raised one of the fault's documented typed
  errors (:class:`~repro.errors.ServiceError` /
  :class:`~repro.errors.CamConfigError`, per
  :data:`~repro.faults.plan.FAULT_SPECS`);
* **tolerated** — the run completed with results bit-identical
  (``==``) to the fault-free baseline;
* anything else is a **violation**: an undocumented error type, an
  untyped exception, or results that silently drifted.

On top of the trichotomy, :class:`InvariantChecker` asserts resource
hygiene around the chaos run: no leaked ``/dev/shm`` segments, no
spawned processes left behind, thread count back at its baseline, and
(when the scenario owns a catalog) all leases released.  Teardown may
be asynchronous (weakref finalizers), so hygiene polls briefly before
declaring a leak.

Verdicts are pure data (:class:`ChaosVerdict`), JSON-ready for the
``tools/chaos_soak.py`` artifact, and deterministic for a given
(scenario, plan) pair — the property the soak harness replays.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

from repro.faults.hooks import arm
from repro.faults.plan import DOCUMENTED_ERRORS, Fault, FaultPlan

__all__ = ["ChaosVerdict", "InvariantChecker", "resource_snapshot"]

#: Seconds hygiene polling waits for asynchronous teardown (worker
#: joins, weakref finalizers) before declaring a leak.
_HYGIENE_TIMEOUT = 10.0
_HYGIENE_POLL = 0.05


@dataclass(frozen=True)
class ResourceSnapshot:
    """Point-in-time view of the leakable resources."""

    shm_names: "frozenset[str]"
    child_pids: "frozenset[int]"
    n_threads: int


def resource_snapshot() -> ResourceSnapshot:
    """Snapshot leakable process-wide resources (hygiene baseline)."""
    shm_dir = "/dev/shm"
    names: "frozenset[str]" = frozenset()
    if os.path.isdir(shm_dir):
        try:
            names = frozenset(os.listdir(shm_dir))
        except OSError:  # pragma: no cover - permissions
            names = frozenset()
    children = frozenset(
        process.pid for process in multiprocessing.active_children()
        if process.pid is not None
    )
    return ResourceSnapshot(shm_names=names, child_pids=children,
                            n_threads=threading.active_count())


def _hygiene_violations(before: ResourceSnapshot) -> "list[str]":
    """Poll until the resource state returns to *before* (or report)."""
    deadline = time.monotonic() + _HYGIENE_TIMEOUT
    while True:
        after = resource_snapshot()
        leaks: "list[str]" = []
        leaked_shm = after.shm_names - before.shm_names
        if leaked_shm:
            leaks.append(
                f"leaked /dev/shm segments: {sorted(leaked_shm)}"
            )
        leaked_children = after.child_pids - before.child_pids
        if leaked_children:
            leaks.append(
                f"leaked child processes: {sorted(leaked_children)}"
            )
        if after.n_threads > before.n_threads:
            leaks.append(
                f"leaked threads: {after.n_threads} alive vs "
                f"{before.n_threads} at baseline"
            )
        if not leaks or time.monotonic() >= deadline:
            return leaks
        time.sleep(_HYGIENE_POLL)


@dataclass(frozen=True)
class ChaosVerdict:
    """The judged outcome of one armed scenario run.

    ``verdict`` is ``"surfaced"``, ``"tolerated"`` or ``"violation"``;
    ``ok`` folds the verdict and the hygiene check into one boolean.
    ``fired`` lists the faults that actually triggered (firing order);
    ``detail`` explains violations in one line.
    """

    scenario: str
    plan_seed: int
    verdict: str
    ok: bool
    fired: "tuple[Fault, ...]"
    error_type: "str | None" = None
    detail: str = ""
    hygiene: "tuple[str, ...]" = field(default_factory=tuple)

    def describe(self) -> "dict[str, object]":
        """JSON-ready record (one row of the chaos artifact)."""
        return {
            "scenario": self.scenario,
            "plan_seed": self.plan_seed,
            "verdict": self.verdict,
            "ok": self.ok,
            "fired": [fault.describe() for fault in self.fired],
            "error_type": self.error_type,
            "detail": self.detail,
            "hygiene": list(self.hygiene),
        }


def judge(fired: "tuple[Fault, ...]",
          error: "BaseException | None",
          result, baseline) -> "tuple[str, str | None, str]":
    """The trichotomy as a pure function — unit-testable in isolation.

    Returns ``(verdict, error_type_name, detail)`` given the fired
    faults, the exception that aborted the run (if any), and the
    canonical results of the chaos and baseline runs.
    """
    if error is not None:
        if not isinstance(error, DOCUMENTED_ERRORS):
            return ("violation", type(error).__name__,
                    f"undocumented error type: {error!r}")
        allowed = any(fault.expected
                      and isinstance(error, fault.expected)
                      for fault in fired)
        if not allowed:
            return ("violation", type(error).__name__,
                    f"typed error without a fired fault documenting "
                    f"it: {error!r}")
        return ("surfaced", type(error).__name__, "")
    if result != baseline:
        return ("violation", None,
                "completed run drifted from the fault-free baseline")
    return ("tolerated", None, "")


class InvariantChecker:
    """Run a scenario fault-free and armed; judge the armed run.

    ``check(scenario, plan)`` runs the scenario once unarmed (the
    bit-identity baseline), snapshots the leakable resources, runs it
    again with *plan* armed, and returns a :class:`ChaosVerdict`
    combining the trichotomy with the hygiene poll.  Baselines are
    cached per scenario name — every plan against one scenario shares
    one fault-free reference run.
    """

    def __init__(self):
        self._baselines: "dict[str, object]" = {}

    def baseline(self, scenario):
        """The scenario's fault-free canonical result (cached)."""
        cached = self._baselines.get(scenario.name)
        if cached is None:
            cached = self._baselines[scenario.name] = scenario.run()
        return cached

    def check(self, scenario, plan: FaultPlan) -> ChaosVerdict:
        baseline = self.baseline(scenario)
        before = resource_snapshot()
        error: "BaseException | None" = None
        result = None
        with arm(plan) as injector:
            try:
                result = scenario.run()
            except BaseException as exc:  # noqa: BLE001 - judged below
                error = exc
        fired = tuple(injector.fired)
        verdict, error_type, detail = judge(fired, error, result, baseline)
        # Release the run's object graph before auditing hygiene: an
        # aborted run's traceback pins the scenario frames — service,
        # engine, queues and their semaphores — which would otherwise
        # read as a leak until this function returned.
        error = None
        result = None
        gc.collect()
        hygiene = tuple(_hygiene_violations(before))
        return ChaosVerdict(
            scenario=scenario.name,
            plan_seed=plan.seed,
            verdict=verdict,
            ok=(verdict != "violation" and not hygiene),
            fired=fired,
            error_type=error_type,
            detail=detail,
            hygiene=hygiene,
        )
