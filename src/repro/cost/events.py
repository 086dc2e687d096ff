"""Typed hardware cost events.

An event records **what the hardware did** — which pass, over how many
queries, against how many stored rows, and the per-row mismatch
populations the pass observed.  Events never carry joules or watts:
energy, latency and power are *derived views* computed from the event
by :mod:`repro.cost.views` through the physical models.  That split is
what keeps the scalar, batched, sweep and sharded execution paths on
one accounting model (see DESIGN.md, "Cost-ledger contract").

Event taxonomy
--------------

* :class:`EdStarPass` — one ED* search pass (the base search of the
  matching flow, or EDAM's plain search);
* :class:`HdacPass` — the Hamming-distance pass HDAC issues when the
  workload's ``p`` is worth the extra cycle (Algorithm 1);
* :class:`TasrRotationPass` — one rotated ED* pass of TASR (or EDAM's
  unconditional SR), carrying the rotation offset so the shift-register
  cycle count is derivable;
* :class:`ReferenceLoad` — reference segments written into an array
  (or encoded once for a frontend's shared reference);
* :class:`BufferBroadcast` — a read block fetched from the global
  buffer and broadcast down the H-tree;
* :class:`CompactionCheckpoint` — the bounded-memory summary a
  compacting ledger folds fully-materialised events into: exact
  resume values for every ledger view plus one
  :class:`PassClassSummary` per folded event class (see
  :meth:`repro.cost.ledger.CostLedger.compact`).

A *pass* event covers a whole query block: ``mismatch_counts`` is the
``(B, M)`` matrix of digital mismatch populations (query, stored row),
exactly what the sense amplifiers converted to decisions.  Scalar
searches record a ``(1, M)`` block.  ``thresholds`` holds the sense-amp
reference levels evaluated against the pass's analog voltages: the
``(B,)`` per-query thresholds of a scalar/batched search, or the
``(T,)`` sweep vector of a sweep pass (``sweep=True``), where one
physical pass serves every threshold — the distinction the strategy
profile harvesting relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LedgerEvent:
    """Base class for every cost-ledger event."""


@dataclass(frozen=True, eq=False)
class SearchPassEvent(LedgerEvent):
    """One physical search pass through a CAM array.

    Attributes
    ----------
    domain:
        ``"charge"`` (ASMCap) or ``"current"`` (EDAM) — selects the
        energy model the views apply.
    mode:
        ``"ed_star"`` or ``"hamming"`` — which comparison the cells ran.
    n_cells:
        Row width ``N`` (bases per stored segment).
    vdd:
        Supply voltage of the array that ran the pass.
    search_time_ns:
        The array's search-cycle time (one pass per query).
    mismatch_counts:
        ``(B, M)`` digital mismatch populations (query, stored row).
    thresholds:
        Sense-amp reference levels evaluated on this pass: per-query
        ``(B,)`` for batched searches, the ``(T,)`` sweep vector
        for sweep passes.
    sweep:
        True when one physical pass served a whole threshold sweep.
    query_keys:
        The per-query noise keys of the pass (None for synthetic
        events, such as the analytic typical-activity pass).
    """

    domain: str
    mode: str
    n_cells: int
    vdd: float
    search_time_ns: float
    mismatch_counts: np.ndarray
    thresholds: np.ndarray
    sweep: bool = False
    query_keys: "np.ndarray | None" = None

    @property
    def n_queries(self) -> int:
        """Queries that physically streamed through the array."""
        return int(self.mismatch_counts.shape[0])

    @property
    def n_rows(self) -> int:
        """Stored rows ``M`` the pass compared against."""
        return int(self.mismatch_counts.shape[1])

    @property
    def shift_cycles(self) -> int:
        """Shift-register cycles this pass spent (rotated passes only)."""
        return 0

    def covers_threshold(self, threshold: int) -> bool:
        """Whether this pass's decisions served *threshold*."""
        return bool(np.any(self.thresholds == int(threshold)))

    # -- derived views (cached; computed by repro.cost.views) ------------

    @property
    def energy_per_query_joules(self) -> np.ndarray:
        """``(B,)`` array energy per query (derived view, cached)."""
        cached = self.__dict__.get("_energy_per_query")
        if cached is None:
            from repro.cost import views

            cached = views.search_pass_energy_per_query(self)
            object.__setattr__(self, "_energy_per_query", cached)
        return cached

    @property
    def energy_joules(self) -> float:
        """Total array energy of the pass (derived view)."""
        return float(self.energy_per_query_joules.sum())

    @property
    def latency_ns(self) -> float:
        """Array-occupancy time of the pass (one cycle per query)."""
        return self.search_time_ns * self.n_queries


@dataclass(frozen=True, eq=False)
class EdStarPass(SearchPassEvent):
    """The base (unrotated) ED* search pass."""


@dataclass(frozen=True, eq=False)
class HdacPass(SearchPassEvent):
    """HDAC's extra Hamming-distance pass (Algorithm 1)."""


@dataclass(frozen=True, eq=False)
class TasrRotationPass(SearchPassEvent):
    """One rotated ED* pass (TASR's Algorithm 2, or EDAM's SR).

    ``rotation`` is the signed rotation offset (positive = left); each
    base of rotation costs one shift-register cycle per query.
    """

    rotation: int = 0

    @property
    def shift_cycles(self) -> int:
        return abs(int(self.rotation)) * self.n_queries


@dataclass(frozen=True, eq=False)
class ReferenceLoad(LedgerEvent):
    """Reference segments written into storage.

    Attributes
    ----------
    n_segments:
        Rows written.
    n_cells:
        Bases per row.
    """

    n_segments: int
    n_cells: int

    @property
    def n_bases(self) -> int:
        return self.n_segments * self.n_cells


@dataclass(frozen=True)
class PassClassSummary:
    """Exact totals for every folded pass of one event class.

    The per-class ledger summary a :class:`CompactionCheckpoint`
    carries: counts, energy/latency accumulated in event order within
    the class, and the first two moments (plus extrema) of the folded
    per-row mismatch populations — enough to keep strategy pass counts
    and population statistics observable after the full events are
    gone.

    Attributes
    ----------
    n_passes:
        Events of this class folded so far.
    n_queries:
        Physical queries those passes streamed through the array.
    shift_cycles:
        Shift-register cycles the passes spent (rotation passes only).
    energy_joules / latency_ns:
        Class totals (event-order accumulation within the class).
    population_count:
        Number of folded ``(query, row)`` mismatch populations.
    population_sum / population_sumsq:
        First two raw moments of the folded mismatch counts.
    population_min / population_max:
        Extrema of the folded mismatch counts (0 when nothing folded).
    """

    n_passes: int = 0
    n_queries: int = 0
    shift_cycles: int = 0
    energy_joules: float = 0.0
    latency_ns: float = 0.0
    population_count: int = 0
    population_sum: int = 0
    population_sumsq: float = 0.0
    population_min: int = 0
    population_max: int = 0

    def fold(self, event: SearchPassEvent) -> "PassClassSummary":
        """This summary with one more pass folded in (a new summary)."""
        counts = event.mismatch_counts
        if counts.size:
            low, high = int(counts.min()), int(counts.max())
            if self.population_count:
                low = min(low, self.population_min)
                high = max(high, self.population_max)
        else:
            low, high = self.population_min, self.population_max
        return PassClassSummary(
            n_passes=self.n_passes + 1,
            n_queries=self.n_queries + event.n_queries,
            shift_cycles=self.shift_cycles + event.shift_cycles,
            energy_joules=self.energy_joules + event.energy_joules,
            latency_ns=self.latency_ns + event.latency_ns,
            population_count=self.population_count + int(counts.size),
            population_sum=self.population_sum + int(counts.sum()),
            population_sumsq=(self.population_sumsq
                              + float((counts.astype(float) ** 2).sum())),
            population_min=low,
            population_max=high,
        )

    @property
    def population_mean(self) -> float:
        """Mean folded mismatch population (0 when empty)."""
        if self.population_count == 0:
            return 0.0
        return self.population_sum / self.population_count


@dataclass(frozen=True, eq=False)
class CompactionCheckpoint(LedgerEvent):
    """The folded prefix of a compacting ledger.

    A compacting :class:`~repro.cost.ledger.CostLedger` replaces its
    oldest fully-materialised events with one checkpoint holding

    * **exact resume values** for the order-sensitive views: the
      running :func:`~repro.cost.views.search_stats` accumulation
      (``n_searches`` / ``n_rotation_cycles`` / ``total_energy_joules``
      / ``total_latency_ns``) and, for all-charge-domain prefixes, the
      running :func:`~repro.cost.views.component_energy_totals`
      per-component sums — both accumulated **in event order** at fold
      time, so a view resuming from the checkpoint performs the same
      float additions the uncompacted event sequence would;
    * **typed per-event-class summaries** (:class:`PassClassSummary`
      keyed by event class name, e.g. ``"EdStarPass"``) plus folded
      :class:`ReferenceLoad` / :class:`BufferBroadcast` traffic totals.

    A checkpoint is only legal as the *first* event of a ledger — the
    resume values are prefixes of the accumulation, nothing else (see
    DESIGN.md, "Cost-ledger contract: compaction").

    Attributes
    ----------
    n_folded:
        Total events folded into this checkpoint.
    n_searches / n_rotation_cycles / total_energy_joules /
    total_latency_ns:
        The exact :func:`~repro.cost.views.search_stats` resume values.
    component_totals:
        The exact :func:`~repro.cost.views.component_energy_totals`
        resume values, or None when a folded pass was current-domain
        (that view rejects current-domain passes, so it must keep
        raising after they fold).
    pass_summaries:
        Per-event-class summaries of the folded search passes.
    n_reference_loads / n_segments_loaded / n_bases_loaded:
        Folded :class:`ReferenceLoad` totals.
    n_broadcasts / n_reads_broadcast / n_bits_broadcast:
        Folded :class:`BufferBroadcast` totals.
    """

    n_folded: int
    n_searches: int
    n_rotation_cycles: int
    total_energy_joules: float
    total_latency_ns: float
    component_totals: "dict[str, float] | None"
    pass_summaries: "dict[str, PassClassSummary]"
    n_reference_loads: int = 0
    n_segments_loaded: int = 0
    n_bases_loaded: int = 0
    n_broadcasts: int = 0
    n_reads_broadcast: int = 0
    n_bits_broadcast: int = 0


@dataclass(frozen=True, eq=False)
class BufferBroadcast(LedgerEvent):
    """A read block fetched from the global buffer and broadcast.

    Attributes
    ----------
    n_reads:
        Reads in the broadcast block.
    read_bits:
        Bits per broadcast read (2 bits/base at the paper's encoding).
    """

    n_reads: int
    read_bits: int

    @property
    def total_bits(self) -> int:
        return self.n_reads * self.read_bits
