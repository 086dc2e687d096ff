"""The cost ledger: a running fold of typed cost events.

Every :class:`~repro.cam.array.CamArray` owns a :class:`CostLedger`
and records one :class:`~repro.cost.events.SearchPassEvent` per
physical pass; the service frontend owns a system-level ledger of its
own for the :class:`~repro.cost.events.ReferenceLoad` of each
reference it resolves.

The ledger's readers need totals only — Section V-B's energy split,
Table I, Fig. 8's searches per read and the service counters — so
:meth:`CostLedger.record` folds each event into them at record time
and keeps no reference to it: the four
:class:`~repro.cost.views.SearchStats` running sums and a count of
recorded events per class.  Memory is flat over any stream, with no
bound to tune.  The sums take the same float additions, in record
order, that a fold over the whole recorded event sequence performs,
so :func:`~repro.cost.views.search_stats` is exact (DESIGN.md,
"Cost-ledger contract").
"""

from __future__ import annotations

from repro.cost.events import (
    EdStarPass,
    HdacPass,
    LedgerEvent,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.cost.views import SearchStats

#: The event classes :meth:`CostLedger.pass_counts` reports.
_PASS_CLASS_NAMES = frozenset(
    cls.__name__
    for cls in (SearchPassEvent, EdStarPass, HdacPass, TasrRotationPass)
)


class CostLedger:
    """Running fold of the events it records; it keeps none of them."""

    def __init__(self):
        self._stats = SearchStats()
        self._event_counts: dict[str, int] = {}

    def record(self, event: LedgerEvent) -> None:
        """Fold one event into the running sums and class counts.

        A search pass adds its queries, its shift cycles (rotation
        passes), its derived energy and its latency, in record order;
        the event itself is not kept.
        """
        name = type(event).__name__
        self._event_counts[name] = self._event_counts.get(name, 0) + 1
        if not isinstance(event, SearchPassEvent):
            return
        stats = self._stats
        stats.n_searches += event.n_queries
        if isinstance(event, TasrRotationPass):
            stats.n_rotation_cycles += event.shift_cycles
        stats.total_energy_joules += event.energy_joules
        stats.total_latency_ns += event.latency_ns

    def event_counts(self) -> "dict[str, int]":
        """Recorded events per class name, ``ReferenceLoad`` included."""
        return dict(self._event_counts)

    def pass_counts(self) -> "dict[str, int]":
        """Recorded search passes per event class."""
        return {name: n for name, n in self._event_counts.items()
                if name in _PASS_CLASS_NAMES}

