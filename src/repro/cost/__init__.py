"""Unified hardware cost accounting: events -> ledger -> views.

Every execution path of the simulator (scalar, batched and sweep
searches) reports its hardware cost through **one** subsystem:

* :mod:`repro.cost.events` — typed events describing what the hardware
  did (:class:`EdStarPass`, :class:`HdacPass`,
  :class:`TasrRotationPass`, :class:`ReferenceLoad`), carrying pass
  counts and the per-row mismatch populations each pass observed;
* :mod:`repro.cost.ledger` — :class:`CostLedger`, the event collector
  owned by every :class:`~repro.cam.array.CamArray` (and, at system
  level, by the frontend).  Append-only by
  default; a compacting ledger (the services') folds its events into
  one :class:`CompactionCheckpoint` that keeps only the
  ``search_stats`` sums and per-class event counts, so those two views
  stay exact and a strategy profile refuses it;
* :mod:`repro.cost.views` — energy / latency / throughput / power
  *derived* from the events through the physical models
  (:mod:`repro.cam.energy`, :mod:`repro.arch.timing`,
  :mod:`repro.arch.power`) — the single accounting implementation that
  every reported joule and nanosecond flows through;
* :mod:`repro.cost.profile` — :class:`StrategyProfile`, the measured
  per-read strategy statistics (searches/read, rotation cycles/read)
  harvested from a ledger, which feed the analytic Fig. 8 path.

The contract (see DESIGN.md): events record *what happened* (counts
and populations), never joules; all energy/latency numbers are derived
views, so the scalar, batched and sweep paths cannot drift apart —
they all read from the same model.
"""

from repro.cost.events import (
    CompactionCheckpoint,
    EdStarPass,
    HdacPass,
    LedgerEvent,
    ReferenceLoad,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.profile import (
    StrategyProfile,
    measure_strategy_profile,
    profile_from_ledger,
    typical_search_event,
)
from repro.cost.views import (
    SearchStats,
    component_energies,
    search_pass_energy_per_query,
    search_pass_latency_ns,
    search_stats,
)

__all__ = [
    "CompactionCheckpoint",
    "CostLedger",
    "EdStarPass",
    "HdacPass",
    "LedgerEvent",
    "ReferenceLoad",
    "SearchPassEvent",
    "SearchStats",
    "StrategyProfile",
    "TasrRotationPass",
    "component_energies",
    "measure_strategy_profile",
    "profile_from_ledger",
    "search_pass_energy_per_query",
    "search_pass_latency_ns",
    "search_stats",
    "typical_search_event",
]
