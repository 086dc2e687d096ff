"""Unified hardware cost accounting: events -> ledger -> views.

Every execution path of the simulator (scalar, batched and sweep
searches) reports its hardware cost through **one** subsystem:

* :mod:`repro.cost.events` — typed events describing what the hardware
  did (:class:`EdStarPass`, :class:`HdacPass`,
  :class:`TasrRotationPass`, :class:`ReferenceLoad`), carrying pass
  counts and the per-row mismatch populations each pass observed;
* :mod:`repro.cost.ledger` — :class:`CostLedger`, owned by every
  :class:`~repro.cam.array.CamArray` (and, at system level, by the
  frontend): a running fold that adds each event to the
  :class:`SearchStats` sums and per-class event counts as it is
  recorded and keeps no event, so memory is flat over any stream;
* :mod:`repro.cost.views` — energy / latency / throughput / power
  *derived* from the events through the physical models
  (:mod:`repro.cam.energy`, :mod:`repro.arch.timing`,
  :mod:`repro.arch.power`) — the single accounting implementation that
  every reported joule and nanosecond flows through, plus the
  synthetic typical-activity pass (:func:`typical_search_event`) that
  anchors the Section V-B power breakdown and Table I.

The contract (see DESIGN.md): events record *what happened* (counts
and populations), never joules; all energy/latency numbers are derived
views, so the scalar, batched and sweep paths cannot drift apart —
they all read from the same model.
"""

from repro.cost.events import (
    EdStarPass,
    HdacPass,
    LedgerEvent,
    ReferenceLoad,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.views import (
    SearchStats,
    component_energies,
    search_pass_energy_per_query,
    search_stats,
    typical_search_event,
)

__all__ = [
    "CostLedger",
    "EdStarPass",
    "HdacPass",
    "LedgerEvent",
    "ReferenceLoad",
    "SearchPassEvent",
    "SearchStats",
    "TasrRotationPass",
    "component_energies",
    "search_pass_energy_per_query",
    "search_stats",
    "typical_search_event",
]
