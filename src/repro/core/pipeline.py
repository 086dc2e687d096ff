"""Read-mapping pipelines: batched and sharded execution.

:class:`ReadMappingPipeline` runs a matcher over a batch of reads and
collects per-read match locations plus aggregate cost statistics —
the read-mapping loop of Fig. 4(a) (sequencing machine -> memory ->
global buffer -> arrays) at the algorithmic level.  The analytic
full-system per-read cost behind Fig. 8 lives in
:func:`repro.experiments.fig8.asmcap_read_cost`; these pipelines charge
the simulated passes, which is what the per-read diagnostics need.

**Execution models.**  Two paths over the one keyed matcher flow:

* :meth:`ReadMappingPipeline.run_batched` — one
  :meth:`~repro.core.matcher.AsmCapMatcher.match_batch` over the whole
  block, vectorising the ED*, HDAC and TASR passes;
* :class:`ShardedReadMappingPipeline` — the software model of
  Fig. 4(a)'s full system: the reference is partitioned across several
  CAM-array *shards* (the contiguous bank assignment of
  :func:`bank_row_ranges`), the global buffer broadcasts every read
  chunk to all shards, and shards search
  concurrently on a persistent thread pool.  Matched rows come back
  in global coordinates; per-read energy sums over shards while
  latency takes the maximum — shards operate in parallel, exactly
  like the banks behind the H-tree — so its cost totals are *not*
  comparable to a single-array run.

Determinism is anchored on per-read *query keys* (the read's global
position in the workload): every draw is keyed by ``(seed, query_key,
pass)`` and a single read is a one-row block, so the one-read wrapper
:meth:`ShardedReadMappingPipeline.map_read` and the chunked,
multi-threaded :meth:`ShardedReadMappingPipeline.run` make
bit-identical decisions under a fixed seed.  The ``first_read_index``
offset of ``run_batched`` and the sharded ``run`` extends the same
anchor to incremental execution — :mod:`repro.service` streams a
workload through ``run_batched`` micro-batch by micro-batch,
bit-identical to one call over the whole block, and a sharded ``run``
per micro-batch is bit-identical to one sharded ``run`` the same way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.arch.autotune import plan_shards
from repro.cam.array import CamArray, as_read_codes, as_segments_matrix
from repro.cost.events import BufferBroadcast
from repro.cost.ledger import CostLedger
from repro.cost.views import (
    SearchStats,
    fold_ledger_observability,
    merge_search_stats,
    search_stats,
)
from repro.core.matcher import (
    AsmCapMatcher,
    MatchBatchOutcome,
    MatchOutcome,
    MatcherConfig,
)
from repro.errors import ArchConfigError, CamConfigError
from repro.genome import alphabet
from repro.genome.edits import ErrorModel
from repro.genome.reads import ReadRecord
from repro.knobs import validate_service_knobs

#: Reads handed to one worker task at a time; bounds the per-pass
#: blocks a shard materialises while streaming a workload.
DEFAULT_READ_CHUNK = 2048


@dataclass(frozen=True)
class ReadMapping:
    """One read's mapping result."""

    read_index: int
    matched_rows: tuple[int, ...]
    outcome: MatchOutcome

    @property
    def is_mapped(self) -> bool:
        return bool(self.matched_rows)

    @property
    def is_unique(self) -> bool:
        return len(self.matched_rows) == 1


@dataclass
class MappingReport:
    """Aggregate statistics for one pipeline run.

    A thin view: per-read costs come from the match outcomes, whose
    energies/latencies are derived from the cost-ledger events
    (:mod:`repro.cost`); the report only sums them in read order.
    """

    n_reads: int = 0
    n_mapped: int = 0
    n_unique: int = 0
    n_searches: int = 0
    total_energy_joules: float = 0.0
    total_latency_ns: float = 0.0
    mappings: list[ReadMapping] = field(default_factory=list)

    @property
    def mapped_fraction(self) -> float:
        return self.n_mapped / self.n_reads if self.n_reads else 0.0

    @property
    def unique_fraction(self) -> float:
        return self.n_unique / self.n_reads if self.n_reads else 0.0

    @property
    def mean_energy_per_read_joules(self) -> float:
        return (self.total_energy_joules / self.n_reads
                if self.n_reads else 0.0)

    @property
    def mean_latency_per_read_ns(self) -> float:
        return (self.total_latency_ns / self.n_reads
                if self.n_reads else 0.0)

    @property
    def reads_per_second(self) -> float:
        """Sequential-throughput estimate from the summed latency."""
        if self.total_latency_ns == 0.0:
            return 0.0
        return self.n_reads / (self.total_latency_ns * 1e-9)

    def add(self, mapping: ReadMapping) -> None:
        """Fold one read's mapping into the aggregates."""
        self.mappings.append(mapping)
        self.n_reads += 1
        self.n_mapped += int(mapping.is_mapped)
        self.n_unique += int(mapping.is_unique)
        self.n_searches += mapping.outcome.n_searches
        self.total_energy_joules += mapping.outcome.energy_joules
        self.total_latency_ns += mapping.outcome.latency_ns

    def snapshot(self) -> "MappingReport":
        """A defensive copy: same aggregates, a fresh mappings list.

        What a long-lived service hands out to callers — mutating the
        snapshot (e.g. ``report.mappings.clear()``) cannot corrupt the
        live aggregates it was taken from.  The per-read
        :class:`ReadMapping` entries are frozen, so sharing them is
        safe.
        """
        return MappingReport(
            n_reads=self.n_reads, n_mapped=self.n_mapped,
            n_unique=self.n_unique, n_searches=self.n_searches,
            total_energy_joules=self.total_energy_joules,
            total_latency_ns=self.total_latency_ns,
            mappings=list(self.mappings),
        )


def _read_codes(read: "np.ndarray | ReadRecord") -> np.ndarray:
    return as_read_codes(read.read.codes if isinstance(read, ReadRecord)
                         else read)


def _codes_matrix(reads: "Sequence[np.ndarray] | Sequence[ReadRecord]",
                  ) -> np.ndarray:
    """Stack a read sequence into a ``(B, N)`` uint8 matrix."""
    rows = [_read_codes(read) for read in reads]
    if not rows:
        return np.zeros((0, 0), dtype=np.uint8)
    widths = {row.shape for row in rows}
    if len(widths) != 1 or rows[0].ndim != 1:
        raise CamConfigError(
            f"reads must share one 1-D shape, got {sorted(widths)}"
        )
    return np.stack(rows)


class ReadMappingPipeline:
    """Batch read mapping over one matcher."""

    def __init__(self, matcher: AsmCapMatcher):
        self._matcher = matcher

    @property
    def matcher(self) -> AsmCapMatcher:
        return self._matcher

    @property
    def backend(self) -> str:
        """Kernel backend name of the underlying array."""
        return self._matcher.array.backend

    @property
    def ledger(self) -> CostLedger:
        """The underlying array's cost ledger (every pass this
        pipeline issued is recorded there as a typed event)."""
        return self._matcher.array.ledger

    def run_batched(self,
                    reads: "Sequence[np.ndarray] | Sequence[ReadRecord]",
                    threshold: int,
                    first_read_index: int = 0) -> MappingReport:
        """Map the whole batch through the vectorised matcher passes.

        ``first_read_index`` offsets the query keys (and the reported
        ``read_index`` values): read ``i`` of this call is keyed as
        global read ``first_read_index + i``.  A streaming caller that
        feeds a workload in micro-batches with the right offsets is
        therefore bit-identical to one ``run_batched`` call over the
        whole workload, for any micro-batch boundaries (the streaming
        service's determinism contract — :mod:`repro.service`).
        """
        codes = _codes_matrix(reads)
        if codes.shape[0] == 0:
            return MappingReport()
        first = int(first_read_index)
        keys = list(range(first, first + codes.shape[0]))
        outcome = self._matcher.match_batch(codes, threshold,
                                            query_keys=keys)
        return _build_report(
            decisions=outcome.decisions,
            thresholds=outcome.thresholds,
            n_searches=outcome.n_searches,
            energy=outcome.energy_joules,
            latency=outcome.latency_ns,
            hdac_probabilities=outcome.hdac_probabilities,
            tasr_lower_bound=outcome.tasr_lower_bound,
            read_indices=keys,
        )


def _build_report(decisions: np.ndarray, thresholds: np.ndarray,
                  n_searches: np.ndarray, energy: np.ndarray,
                  latency: np.ndarray, hdac_probabilities: np.ndarray,
                  tasr_lower_bound: int,
                  read_indices: "list[int]") -> MappingReport:
    """Assemble a :class:`MappingReport` from per-query batch arrays."""
    n_queries = decisions.shape[0]
    # One global nonzero pass instead of B per-row scans, and plain
    # python lists so the hot loop never touches numpy scalars.
    hit_query, hit_row = np.nonzero(decisions)
    boundaries = np.searchsorted(hit_query, np.arange(1, n_queries))
    rows_per_read = np.split(hit_row, boundaries)
    thresholds_l = thresholds.tolist()
    n_searches_l = n_searches.tolist()
    energy_l = np.asarray(energy, dtype=float).tolist()
    latency_l = np.asarray(latency, dtype=float).tolist()
    hdac_l = hdac_probabilities.tolist()
    report = MappingReport()
    for q in range(n_queries):
        per_read = MatchOutcome(
            decisions=decisions[q],
            threshold=thresholds_l[q],
            n_searches=n_searches_l[q],
            energy_joules=energy_l[q],
            latency_ns=latency_l[q],
            hdac_probability=hdac_l[q],
            tasr_lower_bound=tasr_lower_bound,
        )
        report.add(ReadMapping(
            read_index=read_indices[q],
            matched_rows=tuple(rows_per_read[q].tolist()),
            outcome=per_read,
        ))
    return report


def _concat_outcomes(
        chunks: "list[MatchBatchOutcome]") -> MatchBatchOutcome:
    """Concatenate one shard's per-chunk outcomes in chunk order.

    The arrays are stitched back identically to one un-chunked pass,
    chunk boundaries leaving no trace.
    """
    if len(chunks) == 1:
        return chunks[0]
    return MatchBatchOutcome(
        decisions=np.concatenate([c.decisions for c in chunks]),
        thresholds=np.concatenate([c.thresholds for c in chunks]),
        n_searches=np.concatenate([c.n_searches for c in chunks]),
        energy_joules=np.concatenate([c.energy_joules for c in chunks]),
        latency_ns=np.concatenate([c.latency_ns for c in chunks]),
        hdac_probabilities=np.concatenate(
            [c.hdac_probabilities for c in chunks]
        ),
        tasr_lower_bound=chunks[0].tasr_lower_bound,
        hdac_mask=np.concatenate([c.hdac_mask for c in chunks]),
        tasr_mask=np.concatenate([c.tasr_mask for c in chunks]),
    )


def bank_row_ranges(n_rows: int, n_banks: int
                    ) -> tuple[tuple[int, int], ...]:
    """Contiguous ``(start, stop)`` row ranges assigned to each bank.

    Rows map to contiguous blocks in bank order, balanced across the
    requested banks (sizes differ by at most one row) so every shard
    worker stays busy.  Banks that would receive no rows are omitted,
    so the result may be shorter than ``n_banks``.
    """
    if n_rows <= 0:
        raise ArchConfigError(f"n_rows must be positive, got {n_rows}")
    if n_banks <= 0:
        raise ArchConfigError(f"n_banks must be positive, got {n_banks}")
    base, extra = divmod(n_rows, n_banks)
    sizes = [base + 1] * extra + [base] * (n_banks - extra)
    ranges = []
    start = 0
    for size in sizes:
        if size == 0:
            continue
        ranges.append((start, start + size))
        start += size
    return tuple(ranges)


def resolve_shard_plan(n_rows: int, cols: int,
                       n_shards: "int | None",
                       chunk_size: "int | None"
                       ) -> tuple[int, int]:
    """Resolve the ``(n_shards, chunk_size)`` knobs exactly once.

    The single definition of how ``None`` knobs autotune
    (:func:`repro.arch.autotune.plan_shards`) and of the check that
    explicit ones are positive
    (:class:`~repro.errors.CamConfigError` naming the knob).
    """
    for name, value in (("n_shards", n_shards),
                        ("chunk_size", chunk_size)):
        if value is not None and value <= 0:
            raise CamConfigError(f"{name} must be positive, got {value}")
    if n_shards is None or chunk_size is None:
        plan = plan_shards(n_rows, max(1, cols))
        if n_shards is None:
            n_shards = plan.n_shards
        if chunk_size is None:
            chunk_size = plan.chunk_size
    return int(n_shards), int(chunk_size)


class ShardedReadMappingPipeline:
    """Read mapping over a reference partitioned across array shards.

    The software model of Fig. 4(a)'s system view: the reference's
    segment rows are assigned to ``n_shards`` CAM arrays using the
    contiguous bank assignment (:func:`bank_row_ranges`), every read is
    broadcast to all shards (the global buffer + H-tree), and shards
    search concurrently.  Matched row indices are reported in global
    (whole-reference) coordinates.

    Cost semantics: per-read energy *sums* over shards (every bank
    spends its search energy) while per-read latency takes the *max*
    (banks search in parallel behind the H-tree).

    The shard fan-out runs on one **persistent** worker pool, created
    lazily on the first :meth:`run` and reused across calls — a
    streamed workload dispatches thousands of micro-batches, and the
    old build-and-tear-down-per-call executor dominated small-batch
    latency.  :meth:`close` (or the context-manager protocol) releases
    the pool; a later :meth:`run` simply re-creates it.  Call sites
    that construct many pipelines and keep them referenced should
    close each one; a pipeline that is simply dropped releases its
    pool when garbage-collected (the executor's workers hold only a
    weak reference to it).

    Parameters
    ----------
    segments:
        ``(n_rows, N)`` uint8 matrix of reference segments.
    error_model:
        Workload error rates driving the HDAC/TASR policies.
    n_shards:
        Number of array shards to partition the rows across; shards
        that would receive no rows are dropped.  ``None`` autotunes
        the shard count from the reference size and the machine's CPU
        count (:func:`repro.arch.autotune.plan_shards`); explicit
        values must be positive (:class:`~repro.errors.CamConfigError`
        otherwise, from :func:`resolve_shard_plan`).
    config:
        Strategy configuration shared by every shard's matcher.
    domain / noisy / seed:
        Array configuration; shard ``s`` derives its seed as
        ``seed + s`` so shards draw independent (but reproducible)
        noise streams.
    max_workers:
        Worker threads for the shard fan-out (default: the autotuned
        plan's worker count — one per shard, capped at the machine's
        CPU count; extra threads on a small host only add contention).
        Explicit values must be positive —
        :class:`~repro.errors.CamConfigError` otherwise (``0`` is a
        configuration mistake, not a request for autotuning).
    chunk_size:
        Reads per worker task; bounds peak memory of the vectorised
        comparison blocks.  ``None`` autotunes it from the per-shard
        row count and segment width.
    ledger_compaction:
        ``None`` (default) keeps every ledger append-only; an integer
        bound opts every shard array's ledger *and* the system-level
        traffic ledger into bounded-memory compaction
        (:class:`repro.cost.ledger.CostLedger`).  With compaction on,
        read whole-system statistics through :meth:`merged_stats` —
        :meth:`merged_ledger` needs the full event streams.
    backend:
        Kernel backend for every shard array's mismatch-count
        primitives (``None`` = the standard selection order; see
        :mod:`repro.kernels`).  Bit-identical across backends, so the
        knob only changes speed, never decisions or reports.
    """

    def __init__(self,
                 segments: np.ndarray,
                 error_model: ErrorModel,
                 n_shards: "int | None" = 4,
                 config: "MatcherConfig | None" = None,
                 domain: str = "charge",
                 noisy: bool = True,
                 seed: int = 0,
                 max_workers: "int | None" = None,
                 chunk_size: "int | None" = DEFAULT_READ_CHUNK,
                 ledger_compaction: "int | None" = None,
                 backend: "str | None" = None):
        validate_service_knobs(compaction=ledger_compaction,
                               max_workers=max_workers, backend=backend)
        self._matchers: list[AsmCapMatcher] = []
        segments = as_segments_matrix(segments)
        n_shards, chunk_size = resolve_shard_plan(
            segments.shape[0], segments.shape[1], n_shards, chunk_size
        )
        self._ranges = bank_row_ranges(segments.shape[0], n_shards)
        self._cols = int(segments.shape[1])
        for shard, (start, stop) in enumerate(self._ranges):
            array = CamArray(rows=stop - start, cols=self._cols,
                             domain=domain, noisy=noisy,
                             seed=seed + shard,
                             ledger_compaction=ledger_compaction,
                             backend=backend)
            array.store(segments[start:stop])
            self._matchers.append(
                AsmCapMatcher(array, error_model, config,
                              seed=seed + shard)
            )
        self._chunk_size = int(chunk_size)
        if max_workers is None:
            self._max_workers = max(
                1, min(len(self._matchers), os.cpu_count() or 1)
            )
        else:
            self._max_workers = int(max_workers)
        self._pool: "ThreadPoolExecutor | None" = None
        #: System-level traffic events (global-buffer broadcasts); the
        #: per-shard search passes live in each shard array's ledger.
        self._ledger = CostLedger(compaction=ledger_compaction)

    @property
    def n_shards(self) -> int:
        return len(self._matchers)

    @property
    def max_workers(self) -> int:
        """Worker-thread budget of the shard fan-out."""
        return self._max_workers

    @property
    def backend(self) -> str:
        """Kernel backend name shared by every shard array."""
        return self._matchers[0].array.backend

    @property
    def ledger(self) -> CostLedger:
        """This pipeline's system-level traffic events."""
        return self._ledger

    # -- executor lifecycle -------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        """The persistent fan-out pool (lazily created).

        One pool serves every :meth:`run` call — a streamed workload
        dispatches thousands of micro-batches, and per-call executor
        construction pays thread start-up and tear-down on each one.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="asmcap-shard",
            )
        return self._pool

    def close(self) -> None:
        """Release the fan-out pool (idempotent).

        The pipeline stays usable: a later :meth:`run` re-creates the
        pool.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedReadMappingPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def merged_ledger(self) -> CostLedger:
        """One deterministic ledger over the whole sharded system.

        Broadcast events first, then every shard array's passes in
        shard order — independent of worker scheduling, so ledger
        views over a sharded run are reproducible.

        Needs the full event streams: with ``ledger_compaction`` on,
        the shard checkpoints cannot be spliced mid-stream (the merge
        raises :class:`~repro.errors.LedgerCompactionError`) — read
        whole-system statistics through :meth:`merged_stats` instead.
        """
        return CostLedger.merged(
            self._ledger,
            *(matcher.array.ledger for matcher in self._matchers),
        )

    def merged_stats(self) -> SearchStats:
        """Whole-system search counters, exact under compaction.

        Each shard ledger is folded by its own
        :func:`~repro.cost.views.search_stats` (checkpoints restore
        the folded prefix exactly), and the per-shard folds are summed
        in deterministic shard order — so a compacted run reads
        counters bit-identical to the same run without compaction.
        Note the combination order differs from
        ``search_stats(merged_ledger())``'s single interleaved fold,
        so the two agree to float precision, not bit-for-bit.
        """
        return merge_search_stats(
            search_stats(matcher.array.ledger)
            for matcher in self._matchers
        )

    def ledger_observability(
            self) -> "tuple[dict[str, int], int, int, int, int]":
        """Bounded-memory evidence over the whole sharded system.

        ``(pass_counts, events_live, events_folded,
        population_elements, compactions)`` — the same fold
        :func:`repro.cost.views.fold_ledger_observability` defines for
        ledgers, over the broadcast ledger plus every shard ledger.
        """
        return fold_ledger_observability(
            (self._ledger,
             *(matcher.array.ledger for matcher in self._matchers))
        )

    @property
    def shard_ranges(self) -> tuple[tuple[int, int], ...]:
        """Global ``(start, stop)`` row range held by each shard."""
        return self._ranges

    @property
    def matchers(self) -> tuple[AsmCapMatcher, ...]:
        """Per-shard matchers (shard order)."""
        return tuple(self._matchers)

    def map_read(self, read: "np.ndarray | ReadRecord",
                 threshold: int, index: int = 0) -> ReadMapping:
        """Map one read — a thin batch-of-one wrapper.

        Bit-identical to the read's row in a :meth:`run` over any
        workload that places it at global position *index*.
        """
        codes = _read_codes(read)[None, :]
        report = self._run_keyed(codes, threshold, keys=[index])
        return report.mappings[0]

    def run(self, reads: "Sequence[np.ndarray] | Sequence[ReadRecord]",
            threshold: int,
            first_read_index: int = 0) -> MappingReport:
        """Map every read across all shards and merge the reports.

        ``first_read_index`` offsets the determinism keys exactly as
        in :meth:`ReadMappingPipeline.run_batched`: a streamed
        sequence of calls whose offsets tile the workload is
        bit-identical to one call over the whole workload.
        """
        codes = _codes_matrix(reads)
        if codes.shape[0] == 0:
            return MappingReport()
        first = int(first_read_index)
        return self._run_keyed(codes, threshold,
                               keys=list(range(first,
                                               first + codes.shape[0])))

    # -- internals ----------------------------------------------------------

    def _run_keyed(self, codes: np.ndarray, threshold: int,
                   keys: "list[int]") -> MappingReport:
        """Search *codes* on every shard concurrently and merge."""
        if codes.shape[1] != self._cols:
            raise CamConfigError(
                f"read width {codes.shape[1]} does not fit shard width "
                f"{self._cols}"
            )
        # The global buffer broadcasts each chunk to every shard once
        # (Fig. 4(a)'s H-tree); record the traffic before the fan-out.
        read_bits = self._cols * alphabet.BITS_PER_BASE
        for start in range(0, codes.shape[0], self._chunk_size):
            stop = min(start + self._chunk_size, codes.shape[0])
            self._ledger.record(BufferBroadcast(
                n_reads=stop - start, read_bits=read_bits,
            ))
        pool = self._executor()
        futures = [
            pool.submit(self._match_shard, matcher, codes, threshold,
                        keys)
            for matcher in self._matchers
        ]
        try:
            shard_outcomes = [future.result() for future in futures]
        except BaseException:
            # The per-call executor used to guarantee every shard task
            # had finished before an error propagated; the persistent
            # pool must give the same guarantee, or sibling tasks keep
            # writing into our matchers' ledgers while the caller
            # handles (or retries after) the failure.
            for future in futures:
                future.cancel()
            futures_wait(futures)
            raise
        return self._merge(shard_outcomes, keys)

    def _match_shard(self, matcher: AsmCapMatcher, codes: np.ndarray,
                     threshold: int,
                     keys: "list[int]") -> MatchBatchOutcome:
        """One shard's matches for the whole workload, chunk by chunk."""
        chunks = []
        for start in range(0, codes.shape[0], self._chunk_size):
            stop = start + self._chunk_size
            chunks.append(matcher.match_batch(
                codes[start:stop], threshold, query_keys=keys[start:stop]
            ))
        return _concat_outcomes(chunks)

    def _merge(self, shard_outcomes: "list[MatchBatchOutcome]",
               keys: "list[int]") -> MappingReport:
        """Merge per-shard outcomes into one global report.

        Row decisions concatenate in shard (= global row) order;
        energy sums over shards while latency takes the shard maximum
        (banks search in parallel behind the H-tree).
        """
        first = shard_outcomes[0]
        decisions = np.hstack([o.decisions for o in shard_outcomes])
        n_searches = np.sum([o.n_searches for o in shard_outcomes], axis=0)
        energy = np.sum([o.energy_joules for o in shard_outcomes], axis=0)
        latency = np.max([o.latency_ns for o in shard_outcomes], axis=0)
        return _build_report(
            decisions=decisions,
            thresholds=first.thresholds,
            n_searches=n_searches,
            energy=energy,
            latency=latency,
            hdac_probabilities=first.hdac_probabilities,
            tasr_lower_bound=first.tasr_lower_bound,
            read_indices=keys,
        )
