"""Read mapping: one batched engine over the keyed matcher flow.

:class:`ReadMappingPipeline` runs a matcher over a batch of reads and
collects per-read match locations plus aggregate cost statistics —
the read-mapping loop of Fig. 4(a) (sequencing machine -> memory ->
global buffer -> arrays) at the algorithmic level, over one array.
:meth:`ReadMappingPipeline.run_batched` issues one
:meth:`~repro.core.matcher.AsmCapMatcher.match_batch` over the whole
block, vectorising the ED*, HDAC and TASR passes.  The banked system
of Fig. 4(a) (512 arrays behind the global buffer) is modelled
analytically: the full-system per-read cost behind Fig. 8 lives in
:func:`repro.experiments.fig8.asmcap_read_cost`; this pipeline charges
the simulated passes, which is what the per-read diagnostics need.

Determinism is anchored on per-read *query keys* (the read's global
position in the workload): every draw is keyed by ``(seed, query_key,
pass)`` and a single read is a one-row block.  The
``first_read_index`` offset of ``run_batched`` extends the same anchor
to incremental execution — :mod:`repro.service` streams a workload
through ``run_batched`` micro-batch by micro-batch, bit-identical to
one call over the whole block.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.cam.array import as_read_codes
from repro.cost.ledger import CostLedger
from repro.core.matcher import AsmCapMatcher, MatchOutcome
from repro.errors import CamConfigError
from repro.genome.reads import ReadRecord
from repro.knobs import check_integer, check_threshold


@dataclass(frozen=True)
class ReadMapping:
    """One read's mapping result."""

    read_index: int
    matched_rows: tuple[int, ...]
    outcome: MatchOutcome


def _read_mapping(read_index: int, matched_rows: "tuple[int, ...]",
                  decisions: np.ndarray, threshold: int, n_searches: int,
                  energy: float, latency: float, hdac_probability: float,
                  tasr_lower_bound: int) -> ReadMapping:
    """One read's :class:`ReadMapping` from its column entries."""
    return ReadMapping(
        read_index=read_index,
        matched_rows=matched_rows,
        outcome=MatchOutcome(
            decisions=decisions, threshold=threshold,
            n_searches=n_searches, energy_joules=energy,
            latency_ns=latency, hdac_probability=hdac_probability,
            tasr_lower_bound=tasr_lower_bound,
        ),
    )


@dataclass(frozen=True, eq=False)
class _ReadColumns:
    """One engine call's per-read results as immutable columns.

    ``(B,)`` read indices, thresholds, search counts, energies,
    latencies and HDAC ``p``; the ``(B, M)`` decisions; and the matched
    rows in CSR form: read ``q`` matched
    ``rows[row_ptr[q]:row_ptr[q + 1]]``.
    """

    read_index: np.ndarray
    thresholds: np.ndarray
    n_searches: np.ndarray
    energy: np.ndarray
    latency: np.ndarray
    hdac_probabilities: np.ndarray
    decisions: np.ndarray
    row_ptr: np.ndarray
    rows: np.ndarray
    tasr_lower_bound: int

    def __len__(self) -> int:
        return self.read_index.shape[0]

    @cached_property
    def mappings(self) -> "list[ReadMapping]":
        """The per-read view: Python ints, floats and tuples in every
        field but the ``decisions`` row.

        Built on first access and kept with the block, so every report
        that shares the block (a snapshot, a fold) shares these
        objects; callers get them only inside a list of their own.
        """
        ptr = self.row_ptr.tolist()
        rows = self.rows.tolist()
        matched = [tuple(rows[a:b])
                   for a, b in zip(ptr[:-1], ptr[1:], strict=True)]
        return list(map(
            _read_mapping, self.read_index.tolist(), matched,
            self.decisions, self.thresholds.tolist(),
            self.n_searches.tolist(), self.energy.tolist(),
            self.latency.tolist(), self.hdac_probabilities.tolist(),
            repeat(self.tasr_lower_bound),
        ))


def _left_fold(total: float, parts: "Sequence[Sequence[float]]") -> float:
    """``((total + a[0]) + a[1]) + ...`` over the concatenated *parts*.

    The per-read loop's float sum: ``np.add.accumulate`` adds strictly
    in order, so the result has the bits of one ``+=`` per read, where
    ``np.sum`` (pairwise) or ``total + sum(parts)`` would not.
    """
    return float(np.add.accumulate(np.concatenate(([total], *parts)))[-1])


@dataclass(eq=False)
class MappingReport:
    """Aggregate statistics for one pipeline run.

    A thin view: per-read costs come from the match outcomes, whose
    energies/latencies are derived from the cost-ledger events
    (:mod:`repro.cost`); the report only sums them in read order.

    Per-read results are kept as column blocks, one per engine call;
    :attr:`mappings` is their per-read view, built on first access.
    :meth:`add` folds a later report in, block by block.
    """

    n_reads: int = 0
    n_mapped: int = 0
    n_unique: int = 0
    n_searches: int = 0
    total_energy_joules: float = 0.0
    total_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        self._blocks: "list[_ReadColumns]" = []
        self._mappings: "list[ReadMapping] | None" = None

    @property
    def mapped_fraction(self) -> float:
        return self.n_mapped / self.n_reads if self.n_reads else 0.0

    @property
    def unique_fraction(self) -> float:
        return self.n_unique / self.n_reads if self.n_reads else 0.0

    @property
    def reads_per_second(self) -> float:
        """Sequential-throughput estimate from the summed latency."""
        if self.total_latency_ns == 0.0:
            return 0.0
        return self.n_reads / (self.total_latency_ns * 1e-9)

    @property
    def mappings(self) -> "list[ReadMapping]":
        """Every read's :class:`ReadMapping`, in read order.

        A plain list of this report's own, built on first access from
        the blocks' per-read views (shared with every report holding the
        same blocks) and then kept: mutating it changes this list only,
        never the aggregates or the columns :meth:`add` folds.
        """
        if self._mappings is None:
            self._mappings = list(chain.from_iterable(
                block.mappings for block in self._blocks))
        return self._mappings

    def add(self, later: "MappingReport") -> None:
        """Fold *later* in: its reads follow this report's.

        The counters add; each float total continues as the per-read
        left fold over *later*'s reads, in read order
        (:func:`_left_fold`), so folding micro-batch reports one by one
        is bit-identical to one report over the whole stream.  A report
        whose per-read results were cleared (:meth:`clear_mappings`)
        folds its totals as one addend.
        """
        self.n_reads += later.n_reads
        self.n_mapped += later.n_mapped
        self.n_unique += later.n_unique
        self.n_searches += later.n_searches
        blocks = later._blocks
        if sum(map(len, blocks)) == later.n_reads:
            energy = [block.energy for block in blocks]
            latency = [block.latency for block in blocks]
        else:
            energy = [[later.total_energy_joules]]
            latency = [[later.total_latency_ns]]
        self.total_energy_joules = _left_fold(self.total_energy_joules,
                                              energy)
        self.total_latency_ns = _left_fold(self.total_latency_ns, latency)
        self._blocks.extend(blocks)
        if self._mappings is not None:
            self._mappings.extend(later.mappings)

    def clear_mappings(self) -> None:
        """Drop the per-read results, keeping the aggregates."""
        self._blocks = []
        self._mappings = None

    def snapshot(self) -> "MappingReport":
        """A defensive copy: same aggregates, its own mappings list.

        What a long-lived service hands out to callers — mutating the
        snapshot (e.g. ``report.mappings.clear()``) cannot corrupt the
        live aggregates it was taken from.  The column blocks are
        immutable, so the copy shares them, and with them the frozen
        :class:`ReadMapping` objects of their per-read views: every
        snapshot's list points at the same objects.
        """
        copy = replace(self)
        copy._blocks = list(self._blocks)
        if self._mappings is not None:
            copy._mappings = list(self._mappings)
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingReport):
            return NotImplemented
        return (astuple(self) == astuple(other)
                and self.mappings == other.mappings)


def _read_codes(read: "np.ndarray | ReadRecord") -> np.ndarray:
    return as_read_codes(read.read.codes if isinstance(read, ReadRecord)
                         else read)


def _codes_matrix(reads: "Sequence[np.ndarray] | Sequence[ReadRecord]",
                  ) -> np.ndarray:
    """Stack a read sequence into a ``(B, N)`` uint8 matrix.

    A 2-D array is already one: it is coerced in one call.
    """
    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        return as_read_codes(reads)
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
        """``"numpy-gemm"``, the one count kernel.

        Read by the benchmark's configuration record; it goes with
        ROADMAP item 1's perfbench PR.
        """
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
        ``threshold`` is one integer for the whole call and
        ``first_read_index`` an integer; anything else raises (a
        :class:`~repro.errors.ThresholdError` and a
        :class:`~repro.errors.CamConfigError`) rather than truncating.
        """
        threshold = check_threshold(threshold, "match_sweep")
        first = check_integer("first_read_index", first_read_index)
        codes = _codes_matrix(reads)
        if codes.shape[0] == 0:
            return MappingReport()
        keys = np.arange(first, first + codes.shape[0], dtype=np.int64)
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
                  read_indices: "Sequence[int]") -> MappingReport:
    """Assemble a :class:`MappingReport` from per-query batch arrays.

    Array code throughout: one ``nonzero`` pass gives the CSR matched
    rows, ``bincount`` the per-read hit counts, and the float totals
    are the per-read left fold from zero.
    """
    n_queries = decisions.shape[0]
    hit_query, hit_row = np.nonzero(decisions)
    hits = np.bincount(hit_query, minlength=n_queries)
    row_ptr = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum(hits, out=row_ptr[1:])
    columns = {
        "read_index": np.asarray(read_indices, dtype=np.int64),
        "thresholds": np.asarray(thresholds),
        "n_searches": np.asarray(n_searches),
        "energy": np.asarray(energy, dtype=float),
        "latency": np.asarray(latency, dtype=float),
        "hdac_probabilities": np.asarray(hdac_probabilities),
        "decisions": decisions,
        "row_ptr": row_ptr,
        "rows": hit_row,
    }
    for column in columns.values():
        column.setflags(write=False)
    block = _ReadColumns(**columns, tasr_lower_bound=tasr_lower_bound)
    report = MappingReport(
        n_reads=n_queries,
        n_mapped=int(np.count_nonzero(hits)),
        n_unique=int(np.count_nonzero(hits == 1)),
        n_searches=int(block.n_searches.sum()),
        total_energy_joules=_left_fold(0.0, (block.energy,)),
        total_latency_ns=_left_fold(0.0, (block.latency,)),
    )
    report._blocks.append(block)
    return report
