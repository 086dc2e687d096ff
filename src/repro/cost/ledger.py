"""The cost ledger: an append-only collector of typed cost events.

Every :class:`~repro.cam.array.CamArray` owns a :class:`CostLedger`
and records one :class:`~repro.cost.events.SearchPassEvent` per
physical pass; the service frontend owns a system-level ledger of its
own for the :class:`~repro.cost.events.ReferenceLoad` of each
reference it resolves.

The ledger stores events only; every energy/latency/power number is a
*view* computed by :mod:`repro.cost.views` on demand.

**Compaction (bounded memory).**  An append-only ledger retains every
pass's ``(B, M)`` mismatch populations, which grows without bound in a
long-running service.  ``CostLedger(compaction=K)`` opts into the
compacting mode, which follows one rule: once more than ``K`` events
are live, every live event folds into one leading
:class:`~repro.cost.events.CompactionCheckpoint`.  The checkpoint
keeps only what the ledger's readers need: the
:func:`~repro.cost.views.search_stats` running sums, accumulated in
event order, and a count of folded events per class name.  So
``search_stats`` and :meth:`CostLedger.pass_counts` over a compacted
ledger read exactly what the uncompacted event sequence would
(property-tested in ``tests/cost/test_ledger_compaction.py``).  A
checkpoint anywhere but first raises
:class:`~repro.errors.LedgerCompactionError`.  See DESIGN.md,
"Cost-ledger contract: compaction".
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator

from repro.cost.events import (
    CompactionCheckpoint,
    EdStarPass,
    HdacPass,
    LedgerEvent,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.errors import LedgerCompactionError

#: The event classes :meth:`CostLedger.pass_counts` reads from a
#: checkpoint, which counts every folded class by name.
_PASS_CLASS_NAMES = frozenset(
    cls.__name__
    for cls in (SearchPassEvent, EdStarPass, HdacPass, TasrRotationPass)
)


class CostLedger:
    """Append-only, order-preserving event collector.

    Parameters
    ----------
    events:
        Initial events (oldest first).
    compaction:
        ``None`` (the default) keeps every event forever — the
        append-only mode every one-shot experiment uses.  An integer
        ``K >= 1`` opts into bounded-memory compaction: after each
        :meth:`record`, if more than ``K`` events are live, every
        live event folds into the leading
        :class:`~repro.cost.events.CompactionCheckpoint`.
    """

    def __init__(self, events: "Iterable[LedgerEvent] | None" = None,
                 compaction: "int | None" = None):
        if compaction is not None and (
                isinstance(compaction, bool)
                or not isinstance(compaction, numbers.Integral)
                or compaction < 1):
            raise LedgerCompactionError(
                f"compaction bound must be an integer event count >= 1, "
                f"got {compaction!r}"
            )
        self._events: list[LedgerEvent] = list(events or ())
        self._compaction = None if compaction is None else int(compaction)
        self._n_compactions = 0

    def record(self, event: LedgerEvent) -> LedgerEvent:
        """Append one event and return it (for fluent call sites).

        In compacting mode, recording may fold older events into the
        checkpoint; the returned event object stays valid either way
        (folding caches its derived views before discarding it from
        the ledger).
        """
        self._events.append(event)
        if (self._compaction is not None
                and len(self._events) - self._n_checkpoints()
                > self._compaction):
            self.compact()
        return event

    def extend(self, events: Iterable[LedgerEvent]) -> None:
        """Append a batch of events, preserving their order."""
        for event in events:
            self.record(event)

    def clear(self) -> None:
        """Drop every recorded event — including any checkpoint."""
        self._events.clear()

    @property
    def events(self) -> tuple[LedgerEvent, ...]:
        """Every live event, oldest first (checkpoint included)."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LedgerEvent]:
        return iter(self._events)

    # -- compaction ---------------------------------------------------------

    @property
    def compaction(self) -> "int | None":
        """The auto-compaction bound (None = append-only mode)."""
        return self._compaction

    @property
    def checkpoint(self) -> "CompactionCheckpoint | None":
        """The leading checkpoint, when anything has been folded."""
        if self._events and isinstance(self._events[0],
                                       CompactionCheckpoint):
            return self._events[0]
        return None

    @property
    def n_folded(self) -> int:
        """Events folded into the checkpoint so far."""
        checkpoint = self.checkpoint
        return 0 if checkpoint is None else checkpoint.n_folded

    @property
    def n_compactions(self) -> int:
        """How many times this ledger has folded its prefix."""
        return self._n_compactions

    def live_population_elements(self) -> int:
        """Retained ``(query, row)`` mismatch populations (a memory
        proxy: the dominant ledger payload is these matrices)."""
        return sum(int(event.mismatch_counts.size)
                   for event in self._events
                   if isinstance(event, SearchPassEvent))

    def pass_counts(self) -> "dict[str, int]":
        """Search passes per event class, folded events included."""
        counts: dict[str, int] = {}
        checkpoint = self.checkpoint
        if checkpoint is not None:
            for name, n in checkpoint.event_counts.items():
                if name in _PASS_CLASS_NAMES:
                    counts[name] = n
        for event in self._events:
            if isinstance(event, SearchPassEvent):
                name = type(event).__name__
                counts[name] = counts.get(name, 0) + 1
        return counts

    def _n_checkpoints(self) -> int:
        return 0 if self.checkpoint is None else 1

    def compact(self) -> int:
        """Fold every live event into the leading checkpoint.

        The checkpoint carries the running ``search_stats`` sums on:
        each folded pass adds to them in event order, exactly the
        additions :func:`~repro.cost.views.search_stats` performs.
        Reading a folded pass's energy caches its derived views, so
        callers still holding the event object keep working.

        Returns the number of events folded by this call.
        """
        checkpoint = self.checkpoint
        fold = self._events[self._n_checkpoints():]
        if not fold:
            return 0
        if checkpoint is None:
            n_searches = n_rotation_cycles = 0
            total_energy = total_latency = 0.0
            counts: "dict[str, int]" = {}
        else:
            n_searches = checkpoint.n_searches
            n_rotation_cycles = checkpoint.n_rotation_cycles
            total_energy = checkpoint.total_energy_joules
            total_latency = checkpoint.total_latency_ns
            counts = dict(checkpoint.event_counts)
        for event in fold:
            if isinstance(event, CompactionCheckpoint):
                raise LedgerCompactionError(
                    "a checkpoint may only appear as the ledger's first "
                    "event; refusing to fold one mid-stream"
                )
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
            if isinstance(event, SearchPassEvent):
                n_searches += event.n_queries
                n_rotation_cycles += event.shift_cycles
                total_energy += event.energy_joules
                total_latency += event.latency_ns
        self._events[:] = [CompactionCheckpoint(
            n_folded=self.n_folded + len(fold),
            n_searches=n_searches,
            n_rotation_cycles=n_rotation_cycles,
            total_energy_joules=total_energy,
            total_latency_ns=total_latency,
            event_counts=counts,
        )]
        self._n_compactions += 1
        return len(fold)
