"""Unified hardware cost accounting: events -> ledger -> views.

Every execution path of the simulator (scalar, batched, sweep and
sharded searches) reports its hardware cost through **one**
subsystem:

* :mod:`repro.cost.events` — typed events describing what the hardware
  did (:class:`EdStarPass`, :class:`HdacPass`,
  :class:`TasrRotationPass`, :class:`ReferenceLoad`,
  :class:`BufferBroadcast`), carrying pass counts and the per-row
  mismatch populations each pass observed;
* :mod:`repro.cost.ledger` — :class:`CostLedger`, the append-only
  event collector owned by every :class:`~repro.cam.array.CamArray`
  (and, at system level, by the sharded pipeline and the frontend);
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
views, so the scalar, batched, sweep and sharded paths cannot drift
apart — they all read from the same model.
"""

from repro.cost.events import (
    BufferBroadcast,
    CompactionCheckpoint,
    EdStarPass,
    HdacPass,
    LedgerEvent,
    PassClassSummary,
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
    component_energy_totals,
    merge_search_stats,
    search_pass_energy,
    search_pass_energy_per_query,
    search_pass_latency_ns,
    search_stats,
)

__all__ = [
    "BufferBroadcast",
    "CompactionCheckpoint",
    "CostLedger",
    "EdStarPass",
    "HdacPass",
    "LedgerEvent",
    "PassClassSummary",
    "ReferenceLoad",
    "SearchPassEvent",
    "SearchStats",
    "StrategyProfile",
    "TasrRotationPass",
    "component_energies",
    "component_energy_totals",
    "measure_strategy_profile",
    "merge_search_stats",
    "profile_from_ledger",
    "search_pass_energy",
    "search_pass_energy_per_query",
    "search_pass_latency_ns",
    "search_stats",
    "typical_search_event",
]
