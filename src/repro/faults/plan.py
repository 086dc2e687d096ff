"""Typed faults and seed-keyed fault schedules.

The schedule side of :mod:`repro.faults`: a :class:`Fault` names *what*
goes wrong (its ``kind``), *where* (a hook-point name from
:data:`HOOK_POINTS`) and *when* (the 0-based ``hit`` index of that
point — the N-th time the armed run reaches it).  A :class:`FaultPlan`
is an immutable set of faults derived from one integer seed by
:meth:`FaultPlan.generate`, so the same seed always produces the same
schedule — which is what lets the chaos harness replay a failing run
exactly and assert that verdicts are reproducible.

The catalogue of injectable failures lives in :data:`FAULT_SPECS`: for
every kind, the hook points it may attach to and the *documented* typed
errors it is allowed to surface as.  A kind with an empty expected set
(``slow_batch``) must be **tolerated** — the run has
to complete bit-identically to the fault-free baseline.  That table is
the single source the :class:`~repro.faults.checker.InvariantChecker`
judges runs against; adding a fault kind means declaring its contract
here first.

This module is import-light on purpose (no numpy, no repro engines):
the production hook sites import :mod:`repro.faults.hooks`, which
imports only this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import CamConfigError, RefStoreError, ServiceError

__all__ = [
    "FAULT_SPECS",
    "HOOK_POINTS",
    "Fault",
    "FaultPlan",
    "FaultSpec",
]

#: Every named injection site threaded through the production modules.
#: ``fire(point, ...)`` calls with any other name raise at arm time —
#: a typo'd hook would otherwise silently never fire.
HOOK_POINTS = (
    "refstore.save",
    "refstore.open",
    "refstore.catalog.open",
    "service.stream.dispatch",
)


@dataclass(frozen=True)
class FaultSpec:
    """The standing contract of one fault kind.

    ``points`` are the hook points the kind may attach to; ``expected``
    the documented error types a run hitting it may surface as (empty =
    the fault must be tolerated bit-identically); ``doc`` one line for
    reports and artifacts.
    """

    points: "tuple[str, ...]"
    expected: "tuple[type, ...]"
    doc: str


#: kind -> contract.  The checker's trichotomy is judged against the
#: ``expected`` sets.
FAULT_SPECS: "dict[str, FaultSpec]" = {
    "store_truncate": FaultSpec(
        points=("refstore.save",),
        expected=(RefStoreError,),
        doc="truncate a reference store file at save time",
    ),
    "store_crc_flip": FaultSpec(
        points=("refstore.save",),
        expected=(RefStoreError,),
        doc="flip one payload byte of a store file at save time",
    ),
    "poisoned_open": FaultSpec(
        points=("refstore.catalog.open",),
        expected=(RefStoreError,),
        doc="corrupt a store file on disk just before a catalog open",
    ),
    "poisoned_read": FaultSpec(
        points=("service.stream.dispatch",),
        expected=(CamConfigError, ServiceError),
        doc="raise a typed error mid-micro-batch from the dispatch path",
    ),
    "slow_batch": FaultSpec(
        points=("service.stream.dispatch",),
        expected=(),
        doc="delay a micro-batch dispatch (latency only; tolerated)",
    ),
}

#: Documented error surface of the whole fault model (DESIGN.md "Fault
#: model"): every surfaced chaos error must be one of these.
DOCUMENTED_ERRORS = (ServiceError, CamConfigError)


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: *kind* at *point*, on that point's
    *hit*-th firing (0-based), with a kind-specific integer *arg*
    (byte offset, stall milliseconds — see
    :mod:`repro.faults.hooks`)."""

    kind: str
    point: str
    hit: int
    arg: int = 0

    def __post_init__(self):
        spec = FAULT_SPECS.get(self.kind)
        if spec is None:
            raise CamConfigError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{sorted(FAULT_SPECS)}"
            )
        if self.point not in spec.points:
            raise CamConfigError(
                f"fault kind {self.kind!r} cannot attach to hook point "
                f"{self.point!r}; allowed: {spec.points}"
            )
        if self.hit < 0:
            raise CamConfigError(
                f"fault hit index must be >= 0, got {self.hit}"
            )

    @property
    def spec(self) -> FaultSpec:
        return FAULT_SPECS[self.kind]

    @property
    def expected(self) -> "tuple[type, ...]":
        """Documented error types this fault may surface as."""
        return FAULT_SPECS[self.kind].expected

    def describe(self) -> "dict[str, object]":
        """JSON-ready record (the chaos artifact's schedule rows)."""
        return {"kind": self.kind, "point": self.point,
                "hit": self.hit, "arg": self.arg}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-keyed schedule of typed faults.

    At most one fault per ``(point, hit)`` slot — generation enforces
    it, and manual construction through :meth:`of` validates it — so an
    armed run's behaviour is a pure function of the plan.
    """

    seed: int
    faults: "tuple[Fault, ...]" = field(default_factory=tuple)

    def __post_init__(self):
        slots = [(fault.point, fault.hit) for fault in self.faults]
        if len(set(slots)) != len(slots):
            raise CamConfigError(
                f"fault plan schedules multiple faults on one "
                f"(point, hit) slot: {sorted(slots)}"
            )

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        """A hand-built plan (tests and targeted repros), seed 0."""
        return cls(seed=0, faults=tuple(faults))

    @classmethod
    def generate(cls, seed: int,
                 kinds: "tuple[str, ...] | None" = None,
                 max_hits: int = 4,
                 points: "tuple[str, ...] | None" = None) -> "FaultPlan":
        """Derive a schedule from *seed* — same seed, same schedule.

        Picks one fault from *kinds* (default: every kind), attached to
        one of its allowed points at a hit index in ``[0, max_hits)``.

        *points*, when given, restricts attachment to hook points the
        caller's workload actually reaches (a chaos scenario's
        ``reachable_points``) — kinds with no allowed point left are
        skipped, so generated faults are rarely vacuous.
        """
        if kinds is None:
            kinds = tuple(sorted(FAULT_SPECS))
        for kind in kinds:
            if kind not in FAULT_SPECS:
                raise CamConfigError(
                    f"unknown fault kind {kind!r}; known: "
                    f"{sorted(FAULT_SPECS)}"
                )
        if points is not None:
            for point in points:
                if point not in HOOK_POINTS:
                    raise CamConfigError(
                        f"unknown hook point {point!r}; known: "
                        f"{HOOK_POINTS}"
                    )
        if max_hits < 1:
            raise CamConfigError(
                f"max_hits must be positive, got {max_hits}"
            )
        rng = random.Random(seed)
        for _ in range(64):
            kind = rng.choice(kinds)
            spec = FAULT_SPECS[kind]
            allowed = (spec.points if points is None else
                       tuple(p for p in spec.points if p in points))
            if allowed:
                fault = Fault(kind=kind, point=rng.choice(allowed),
                              hit=rng.randrange(max_hits),
                              arg=rng.randrange(1 << 16))
                return cls(seed=seed, faults=(fault,))
        return cls(seed=seed)

    def describe(self) -> "dict[str, object]":
        """JSON-ready record of the whole schedule."""
        return {"seed": self.seed,
                "faults": [fault.describe() for fault in self.faults]}
