"""The cost ledger: an append-only collector of typed cost events.

Every :class:`~repro.cam.array.CamArray` owns a :class:`CostLedger`
and records one :class:`~repro.cost.events.SearchPassEvent` per
physical pass; system-level components (the sharded pipeline, the
service frontend) own their own ledgers for :class:`ReferenceLoad` /
:class:`BufferBroadcast` traffic and merge the array ledgers in
deterministic (shard) order when a whole-system view is needed.

The ledger stores events only; every energy/latency/power number is a
*view* computed by :mod:`repro.cost.views` on demand.

**Compaction (bounded memory).**  An append-only ledger retains every
pass's ``(B, M)`` mismatch populations, which grows without bound in a
long-running service.  ``CostLedger(compaction=K)`` opts into the
compacting mode: whenever more than ``K`` foldable events are live,
the oldest fully-materialised events are folded into one leading
:class:`~repro.cost.events.CompactionCheckpoint` carrying exact resume
values for every ledger view plus typed per-event-class summaries.
Folding is **prefix-only** and preserves bit-identity: the checkpoint
stores the views' own running float accumulations computed in event
order, so ``search_stats`` / ``component_energy_totals`` over the
compacted ledger read exactly the floats the uncompacted event
sequence would produce (property-tested in
``tests/cost/test_ledger_compaction.py``).  Sweep passes are never
folded by default — strategy-profile harvesting
(:func:`repro.cost.profile.profile_from_ledger`) needs their per-event
threshold coverage — and block further folding until
:meth:`CostLedger.compact` is called with ``fold_sweep=True`` (after
the profile has been harvested) or the ledger is cleared.  See
DESIGN.md, "Cost-ledger contract: compaction".
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.cost.events import (
    BufferBroadcast,
    CompactionCheckpoint,
    LedgerEvent,
    PassClassSummary,
    ReferenceLoad,
    SearchPassEvent,
)
from repro.errors import LedgerCompactionError


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
        :meth:`record`, if more than ``K`` foldable events are live,
        the foldable prefix is folded into the leading
        :class:`~repro.cost.events.CompactionCheckpoint`.
    """

    def __init__(self, events: "Iterable[LedgerEvent] | None" = None,
                 compaction: "int | None" = None):
        if compaction is not None and int(compaction) < 1:
            raise LedgerCompactionError(
                f"compaction bound must be a positive event count, got "
                f"{compaction}"
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
                and self._n_live_foldable() > self._compaction):
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

    def search_passes(self) -> "tuple[SearchPassEvent, ...]":
        """The live (unfolded) search-pass events, oldest first."""
        return tuple(event for event in self._events
                     if isinstance(event, SearchPassEvent))

    def of_type(self, *types: type) -> "tuple[LedgerEvent, ...]":
        """Live events matching any of the given event classes."""
        return tuple(event for event in self._events
                     if isinstance(event, types))

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
            for name, summary in checkpoint.pass_summaries.items():
                counts[name] = counts.get(name, 0) + summary.n_passes
        for event in self._events:
            if isinstance(event, SearchPassEvent):
                name = type(event).__name__
                counts[name] = counts.get(name, 0) + 1
        return counts

    def _n_live_foldable(self) -> int:
        """Live events the next :meth:`compact` call would fold."""
        n = 0
        start = 1 if self.checkpoint is not None else 0
        for event in self._events[start:]:
            if isinstance(event, SearchPassEvent) and event.sweep:
                break
            n += 1
        return n

    def compact(self, fold_sweep: bool = False) -> int:
        """Fold the foldable event prefix into the checkpoint.

        Folding walks events oldest-first and stops at the first sweep
        pass (unless ``fold_sweep=True``): a sweep pass's per-event
        threshold coverage feeds strategy-profile harvesting, and a
        non-prefix fold would break the views' float-accumulation
        order.  Every folded event's derived views are materialised
        (cached) before it is discarded, so callers still holding the
        event object keep working.

        Returns the number of events folded by this call.
        """
        from repro.cost.views import component_energies

        checkpoint = self.checkpoint
        start = 0 if checkpoint is None else 1
        fold: list[LedgerEvent] = []
        for event in self._events[start:]:
            if (isinstance(event, SearchPassEvent) and event.sweep
                    and not fold_sweep):
                break
            fold.append(event)
        if not fold:
            return 0

        if checkpoint is None:
            n_folded = 0
            n_searches = 0
            n_rotation_cycles = 0
            total_energy = 0.0
            total_latency = 0.0
            component_totals: "dict[str, float] | None" = {
                "cells": 0.0, "shift_registers": 0.0, "sense_amps": 0.0,
            }
            summaries: dict[str, PassClassSummary] = {}
            loads = [0, 0, 0]
            broadcasts = [0, 0, 0]
        else:
            n_folded = checkpoint.n_folded
            n_searches = checkpoint.n_searches
            n_rotation_cycles = checkpoint.n_rotation_cycles
            total_energy = checkpoint.total_energy_joules
            total_latency = checkpoint.total_latency_ns
            component_totals = (None if checkpoint.component_totals is None
                                else dict(checkpoint.component_totals))
            summaries = dict(checkpoint.pass_summaries)
            loads = [checkpoint.n_reference_loads,
                     checkpoint.n_segments_loaded,
                     checkpoint.n_bases_loaded]
            broadcasts = [checkpoint.n_broadcasts,
                          checkpoint.n_reads_broadcast,
                          checkpoint.n_bits_broadcast]

        for event in fold:
            n_folded += 1
            if isinstance(event, SearchPassEvent):
                # The same per-event accumulation search_stats performs,
                # in the same event order — the exact resume contract.
                n_searches += event.n_queries
                n_rotation_cycles += event.shift_cycles
                total_energy += event.energy_joules
                total_latency += event.latency_ns
                if component_totals is not None:
                    if event.domain == "charge":
                        for key, value in component_energies(event).items():
                            component_totals[key] += value
                    else:
                        component_totals = None
                name = type(event).__name__
                summaries[name] = summaries.get(
                    name, PassClassSummary()).fold(event)
            elif isinstance(event, ReferenceLoad):
                loads[0] += 1
                loads[1] += event.n_segments
                loads[2] += event.n_bases
            elif isinstance(event, BufferBroadcast):
                broadcasts[0] += 1
                broadcasts[1] += event.n_reads
                broadcasts[2] += event.total_bits
            elif isinstance(event, CompactionCheckpoint):
                raise LedgerCompactionError(
                    "a checkpoint may only appear as the ledger's first "
                    "event; refusing to fold one mid-stream"
                )

        merged = CompactionCheckpoint(
            n_folded=n_folded,
            n_searches=n_searches,
            n_rotation_cycles=n_rotation_cycles,
            total_energy_joules=total_energy,
            total_latency_ns=total_latency,
            component_totals=component_totals,
            pass_summaries=summaries,
            n_reference_loads=loads[0],
            n_segments_loaded=loads[1],
            n_bases_loaded=loads[2],
            n_broadcasts=broadcasts[0],
            n_reads_broadcast=broadcasts[1],
            n_bits_broadcast=broadcasts[2],
        )
        self._events[:start + len(fold)] = [merged]
        self._n_compactions += 1
        return len(fold)

    @classmethod
    def merged(cls, *ledgers: "CostLedger") -> "CostLedger":
        """One ledger holding every input's events, input order.

        Shard merges pass shard-ordered ledgers, so the merged event
        order — and therefore every order-sensitive view — is
        deterministic regardless of worker scheduling.

        A compacted ledger is only accepted as the *first* input: its
        checkpoint stays the merged ledger's head, so the views'
        resume-from-prefix contract still holds.  A checkpoint from a
        later input would land mid-stream — the interleaved
        accumulation it folded away no longer exists — so such merges
        raise :class:`~repro.errors.LedgerCompactionError`; aggregate
        compacted shard ledgers at the stats level instead (e.g.
        :meth:`repro.core.pipeline.ShardedReadMappingPipeline.
        merged_stats`).
        """
        merged = cls()
        for position, ledger in enumerate(ledgers):
            if position > 0 and ledger.checkpoint is not None:
                raise LedgerCompactionError(
                    "cannot merge a compacted ledger after the first "
                    "position: its checkpoint would land mid-stream; "
                    "aggregate per-ledger views instead"
                )
            merged._events.extend(ledger.events)
        return merged
