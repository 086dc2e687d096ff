"""The service layer's one session core.

A :class:`MappingSession` is one client stream over a reference.  It
validates and coalesces reads into micro-batches, keys each batch by
its offset in the stream, runs the engine (one
:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched` per
micro-batch), folds every batch report into the session aggregate and
snapshots :class:`ServiceStats`.  Two executors run the batches, and
nothing else differs between them:

* **pooled** — the persistent workers of a
  :class:`~repro.service.frontend.MappingFrontend`: round-robin across
  sessions, a bounded backlog, ``drain`` waits for the queue;
* **inline** — the caller's thread, before ``submit`` returns.
  :class:`~repro.service.stream.StreamingMappingService` is the session
  on this executor.

A frontend session and a standalone service with the same seed,
threshold, micro-batch and reads are therefore bit-identical by
construction (DESIGN.md, "Session isolation").

**Sticky failures.**  A failed engine call poisons its session: the
batch it was running is lost, so every later ``submit`` / ``flush`` /
``drain`` / ``close`` raises :class:`~repro.errors.ServiceError`
chained to the cause instead of keying further reads at a wrong
offset.  On the inline executor the call that ran the batch re-raises
the engine's own error first.  A fault raised at a dispatch hook
*before* the batch is taken (a poisoned read) leaves the reads
buffered and the session usable.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from repro.arch.autotune import plan_microbatch
from repro.cam.array import (
    CamArray,
    StoredReference,
    as_read_codes,
    as_segments_matrix,
)
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import MappingReport, ReadMapping, ReadMappingPipeline
from repro.cost.views import (
    SearchStats,
    fold_ledger_observability,
    search_stats,
)
from repro.errors import CamConfigError, ServiceError, ThresholdError
from repro.faults.hooks import fire as _fire_fault
from repro.genome.reads import ReadRecord
from repro.knobs import check_integer

__all__ = [
    "DEFAULT_SERVICE_COMPACTION",
    "MappingSession",
    "ServiceStats",
    "build_pipeline",
]

#: The live-event bound of every service ledger (services always
#: compact): deep enough that a whole micro-batch's passes (2 + 2*NR
#: events) stay inspectable between folds, shallow enough that memory
#: is flat.
DEFAULT_SERVICE_COMPACTION = 64


@dataclass(frozen=True)
class ServiceStats:
    """One observability snapshot of a mapping session.

    Attributes
    ----------
    reads_submitted / reads_dispatched / reads_in_flight:
        Stream accounting: everything accepted, everything an engine
        call completed, and the difference (buffered, queued or
        running — and, after a failed engine call, lost).
    reads_mapped:
        Dispatched reads with at least one matched row.
    batches_dispatched / micro_batch:
        Micro-batches completed so far and the configured batch size.
    n_searches:
        Physical search passes issued (from the ledger views, folded
        events included).
    pass_counts:
        Per-strategy pass counts by event class
        (``EdStarPass`` / ``HdacPass`` / ``TasrRotationPass``),
        folded passes included.
    total_energy_joules / total_latency_ns:
        Modelled hardware cost, read from the compacted ledger's
        ``search_stats`` view — bit-identical to an uncompacted run's.
    wall_seconds / reads_per_second:
        Simulator wall-clock since the first submission and the
        dispatch throughput over it.
    ledger_events_live / ledger_events_folded /
    ledger_population_elements:
        Bounded-memory evidence of the session's compacting ledger:
        live events, events folded into its checkpoint, and retained
        mismatch-population elements (the dominant ledger payload).
    compactions:
        How many times the ledger has folded.
    """

    reads_submitted: int
    reads_dispatched: int
    reads_in_flight: int
    reads_mapped: int
    batches_dispatched: int
    micro_batch: int
    n_searches: int
    pass_counts: "dict[str, int]"
    total_energy_joules: float
    total_latency_ns: float
    wall_seconds: float
    reads_per_second: float
    ledger_events_live: int
    ledger_events_folded: int
    ledger_population_elements: int
    compactions: int


def build_pipeline(reference, error_model, config, *, seed: int,
                   backend: "str | None", domain: str,
                   noisy: bool) -> ReadMappingPipeline:
    """The service layer's one engine construction.

    *reference* is either a
    :class:`~repro.cam.array.StoredReference` the engine borrows with
    zero encode passes, or a segment matrix, encoded here into the
    engine's own array (``CamArray.store``).  The array and the matcher
    share ``seed``, and the array's ledger compacts at
    :data:`DEFAULT_SERVICE_COMPACTION`.
    """
    if isinstance(reference, StoredReference):
        return ReadMappingPipeline(AsmCapMatcher.over_stored(
            reference, error_model, config, domain=domain, noisy=noisy,
            seed=seed, ledger_compaction=DEFAULT_SERVICE_COMPACTION,
            backend=backend,
        ))
    reference = as_segments_matrix(reference)
    array = CamArray(rows=reference.shape[0], cols=reference.shape[1],
                     domain=domain, noisy=noisy, seed=seed,
                     ledger_compaction=DEFAULT_SERVICE_COMPACTION,
                     backend=backend)
    array.store(reference)
    return ReadMappingPipeline(
        AsmCapMatcher(array, error_model, config, seed=seed)
    )


class MappingSession:
    """One client stream over a reference (see the module docstring).

    ``submit`` / ``submit_many`` / ``flush`` / ``drain`` / ``close`` /
    ``stats`` / ``report``.  A session is fed by one client thread;
    results and lifecycle are safe to *read* from others.  Pooled
    sessions come from :meth:`MappingFrontend.session
    <repro.service.frontend.MappingFrontend.session>`; the inline
    session is :class:`~repro.service.stream.StreamingMappingService`.
    """

    def __init__(self, frontend, index: int,
                 pipeline: ReadMappingPipeline, threshold: int,
                 micro_batch: "int | None", retain_mappings: bool):
        threshold = check_integer("threshold", threshold, ThresholdError)
        if threshold < 0:
            raise ThresholdError(
                f"threshold must be non-negative, got {threshold}"
            )
        stored = pipeline.matcher.array.stored
        if micro_batch is None:
            micro_batch = plan_microbatch(stored.n_segments, stored.cols)
        #: The pooled executor's frontend; ``None`` runs inline.
        self._frontend = frontend
        self._label = (f"session {index}" if frontend is not None
                       else "the streaming service")
        self._index = index
        self._pipeline = pipeline
        self._threshold = threshold
        self._micro_batch = int(micro_batch)
        self._retain_mappings = bool(retain_mappings)
        self._cols = int(stored.cols)
        #: A pooled session shares the frontend's lock (which guards
        #: everything below); an inline one owns its own.
        self._lock = (threading.Lock() if frontend is None
                      else frontend._lock)
        #: Serialises engine calls against ledger-reading observability;
        #: always acquired BEFORE ``_lock`` (the one lock-ordering rule).
        self._dispatch_mutex = threading.Lock()
        #: Coalescing buffer: validated ``(k, N)`` read blocks.
        self._buffer: "list[np.ndarray]" = []
        self._n_buffered = 0
        self._pending: "deque[tuple[int, np.ndarray]]" = deque()
        self._executing = False
        self._report = MappingReport()
        self._last_batch = MappingReport()
        self._n_submitted = 0
        self._n_enqueued = 0
        self._n_dispatched = 0
        self._n_batches = 0
        self._closed = False
        self._closing = False
        self._failure: "BaseException | None" = None
        self._started_at: "float | None" = None
        self._idle = threading.Condition(self._lock)

    # -- configuration ------------------------------------------------------

    @property
    def index(self) -> int:
        """Stable session number within the frontend (open order)."""
        return self._index

    @property
    def backend(self) -> str:
        """Kernel backend name the engine's arrays search with."""
        return self._pipeline.backend

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def micro_batch(self) -> int:
        """Reads coalesced per engine call."""
        return self._micro_batch

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pipeline(self) -> ReadMappingPipeline:
        """This session's private engine."""
        return self._pipeline

    @property
    def report(self) -> MappingReport:
        """The aggregate over every *completed* engine call.

        Buffered or queued reads are not in it yet; :meth:`drain` for a
        complete view.  A defensive
        :meth:`~repro.core.pipeline.MappingReport.snapshot`: callers may
        mutate it without corrupting the session's live aggregates.
        :meth:`drain` and :meth:`close` return the same kind of snapshot.
        """
        with self._lock:
            return self._report.snapshot()

    @property
    def batches_dispatched(self) -> int:
        """Micro-batches completed so far."""
        with self._lock:
            return self._n_batches

    @property
    def last_batch_mappings(self) -> "tuple[ReadMapping, ...]":
        """The most recently completed micro-batch's per-read results.

        Replaced wholesale per batch (one micro-batch of memory,
        whatever ``retain_mappings`` says) — the hand-off surface
        :func:`~repro.service.stream.stream_mapped` drains.  Built from
        the batch report's columns on first access, outside the session
        lock (the batch report is never folded into after it lands).
        """
        with self._lock:
            batch = self._last_batch
        return tuple(batch.mappings)

    # -- feed ---------------------------------------------------------------

    def submit(self, read: "np.ndarray | ReadRecord") -> None:
        """Accept one read; hand a micro-batch to the executor whenever
        the buffer fills (inline: it runs before this call returns).

        Raises :class:`~repro.errors.CamConfigError` for a read that is
        not an integer code vector in 0..255 of the reference width,
        and :class:`~repro.errors.ServiceError` once the session (or its
        frontend) is closed or failed.  Pooled, a full frontend backlog
        blocks here until a worker frees a slot.  A rejected pooled
        submit is **all-or-nothing**: the read was *not* accepted, so
        the caller retries the same read after backing off.
        """
        self._accept(self._read_codes(read)[None])

    def submit_many(
            self,
            reads: "Iterable[np.ndarray] | Iterable[ReadRecord]") -> int:
        """Consume any read iterable, handing batches off as they fill.

        Lazy — an endless generator works: each step pulls at most the
        buffer's free room (``micro_batch`` minus the buffered reads),
        validates that slice as one block and accepts it under one lock
        hold, so at most one micro-batch is ever coalesced here.
        Returns how many reads were accepted.

        Per read, the outcome is :meth:`submit`'s: a bad read at slice
        position ``k`` accepts reads ``0..k-1`` and raises the error
        ``submit`` raises for it (the slice's later reads were pulled
        from the iterable but are not accepted).  A refused pooled
        enqueue hands the **whole slice** back (``reads_submitted``
        returns to its value before the slice) and raises; earlier
        slices stay accepted.
        """
        reads = iter(reads)
        n = 0
        while True:
            # One feeding thread owns the buffer's fill level, so the
            # room read here cannot go stale before the slice lands.
            room = max(1, self._micro_batch - self._n_buffered)
            block, error = self._block_codes(list(islice(reads, room)))
            if block is not None:
                self._accept(block)
                n += block.shape[0]
            if error is not None:
                raise error
            if block is None or block.shape[0] < room:
                return n

    def _read_codes(self, read: "np.ndarray | ReadRecord") -> np.ndarray:
        """One read's validated ``(N,)`` uint8 codes."""
        codes = as_read_codes(
            read.read.codes if isinstance(read, ReadRecord) else read)
        if codes.shape != (self._cols,):
            raise CamConfigError(
                f"read shape {codes.shape} does not fit reference width "
                f"{self._cols}"
            )
        return codes

    def _block_codes(
            self, reads: list,
            ) -> "tuple[np.ndarray | None, Exception | None]":
        """The ``(k, N)`` codes of a slice's valid prefix (``None`` when
        empty) and the error of its first bad read (``None`` if none).

        A slice of one dtype is stacked and checked at once: stacking
        keeps the dtype, so one :func:`as_read_codes` range scan and one
        shape check decide exactly what per-read checks would.  A mixed
        or failing slice is re-checked read by read, as :meth:`submit`
        checks it, up to its first bad read.
        """
        try:
            arrays = [np.asarray(read.read.codes
                                 if isinstance(read, ReadRecord) else read)
                      for read in reads]
            if arrays and len({array.dtype for array in arrays}) == 1:
                block = as_read_codes(np.stack(arrays))
                if block.shape[1:] == (self._cols,):
                    return block, None
        except (CamConfigError, TypeError, ValueError):
            pass
        codes = []
        error = None
        for read in reads:
            try:
                codes.append(self._read_codes(read))
            except Exception as exc:  # noqa: BLE001 — re-raised by the caller
                error = exc
                break
        return (np.stack(codes) if codes else None), error

    def _accept(self, block: np.ndarray) -> None:
        """Buffer a validated ``(k, N)`` block under one lock hold and
        hand the buffer to the executor once it is full."""
        with self._lock:
            self._check_open_locked()
            if self._started_at is None:
                self._started_at = time.perf_counter()
            self._buffer.append(block)
            self._n_buffered += block.shape[0]
            self._n_submitted += block.shape[0]
            if self._n_buffered < self._micro_batch:
                return
            if self._frontend is None:
                self._run_inline_locked()
                return
            try:
                self._enqueue_locked()
            except ServiceError:
                # The enqueue was refused (a fault at the enqueue
                # hook, or the frontend stopped while this submit
                # waited): hand the block back so a retry cannot
                # duplicate it.
                self._buffer.pop()
                self._n_buffered -= block.shape[0]
                self._n_submitted -= block.shape[0]
                raise

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> int:
        """Hand the buffered reads to the executor now, full micro-batch
        or not, and return how many (0 when the buffer was empty).

        Inline, they have run when this returns; pooled, they are only
        queued — :meth:`drain` waits for them.
        """
        with self._lock:
            self._check_open_locked()
            return self._enqueue_locked()

    def drain(self) -> MappingReport:
        """Flush, wait until every accepted read has run, and return the
        aggregate report (a defensive snapshot).

        The session stays open — a long-running caller drains at
        checkpoint boundaries and keeps feeding.
        """
        with self._lock:
            self._check_open_locked()
            self._enqueue_locked()
            self._wait_idle_locked()
            return self._report.snapshot()

    def close(self) -> MappingReport:
        """Drain, end the session, and return the final report.

        Idempotent; later :meth:`submit` / :meth:`flush` /
        :meth:`drain` calls raise :class:`~repro.errors.ServiceError`.
        Each call returns a fresh defensive snapshot.
        """
        with self._lock:
            if not self._closed:
                self._check_failure_locked()
                # Refuse new feeds from here on: a concurrent submitter
                # refilling the queue must not keep the drain below
                # from ever terminating.
                self._closing = True
                if self._executor_running:
                    self._enqueue_locked()
                    self._wait_idle_locked()
                elif self._buffer or self._pending or self._executing:
                    # The frontend stopped (no workers left) while this
                    # session still had accepted-but-unexecuted reads:
                    # surface the loss instead of waiting forever.
                    raise ServiceError(
                        f"the mapping frontend was closed while "
                        f"{self._label} still had reads in flight"
                    )
                self._closed = True
            return self._report.snapshot()

    def __enter__(self) -> "MappingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability ------------------------------------------------------

    def merged_stats(self) -> SearchStats:
        """Whole-session search counters (exact under compaction),
        from the engine's own fold."""
        with self._dispatch_mutex:
            return search_stats(self._pipeline.ledger)

    def stats(self) -> ServiceStats:
        """Snapshot this session's observable state
        (:class:`ServiceStats`)."""
        # Lock order: dispatch mutex first (freezes the ledgers), then
        # the session lock (freezes the counters) — as executors do.
        with self._dispatch_mutex:
            stats = search_stats(self._pipeline.ledger)
            (pass_counts, events_live, events_folded, population,
             compactions) = fold_ledger_observability(self._pipeline.ledger)
            with self._lock:
                wall = (0.0 if self._started_at is None
                        else time.perf_counter() - self._started_at)
                return ServiceStats(
                    reads_submitted=self._n_submitted,
                    reads_dispatched=self._n_dispatched,
                    reads_in_flight=self._n_submitted - self._n_dispatched,
                    reads_mapped=self._report.n_mapped,
                    batches_dispatched=self._n_batches,
                    micro_batch=self._micro_batch,
                    n_searches=stats.n_searches,
                    pass_counts=pass_counts,
                    total_energy_joules=stats.total_energy_joules,
                    total_latency_ns=stats.total_latency_ns,
                    wall_seconds=wall,
                    reads_per_second=(self._n_dispatched / wall
                                      if wall > 0.0 else 0.0),
                    ledger_events_live=events_live,
                    ledger_events_folded=events_folded,
                    ledger_population_elements=population,
                    compactions=compactions,
                )

    # -- internals (session lock held) --------------------------------------

    @property
    def _executor_running(self) -> bool:
        return self._frontend is None or self._frontend._running

    def _check_failure_locked(self) -> None:
        if self._failure is not None:
            raise ServiceError(
                f"{self._label} dispatch failed: {self._failure!r}"
            ) from self._failure

    def _check_open_locked(self) -> None:
        self._check_failure_locked()
        if self._closed or self._closing:
            raise ServiceError(f"{self._label} has been closed")
        if not self._executor_running:
            raise ServiceError("the mapping frontend has been closed")

    def _take_locked(self) -> "tuple[int, np.ndarray]":
        """Swap the coalescing buffer out as one ``(B, N)`` batch.

        The batch's key base (``first_read_index``) is assigned here, in
        submission order, so no executor scheduling can perturb the
        keyed noise streams.  A buffer of one block (a whole
        ``submit_many`` slice) is the batch as-is.
        """
        blocks = self._buffer
        batch = (self._n_enqueued,
                 blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
        self._buffer = []
        self._n_enqueued += self._n_buffered
        self._n_buffered = 0
        return batch

    def _run_inline_locked(self) -> int:
        """Inline executor: run the buffered batch on the caller's
        thread, releasing the lock around the engine call (the same
        lock order a pool worker uses)."""
        # Chaos hook, before the buffer swap: a poisoned-read fault
        # raising here leaves the reads coalesced, so a later drain
        # (e.g. the close() path) still runs them once.
        _fire_fault("service.stream.dispatch", service=self,
                    first_read_index=self._n_enqueued)
        first, codes = self._take_locked()
        self._lock.release()
        try:
            failure = self._execute(first, codes)
        finally:
            self._lock.acquire()
        if failure is not None:
            raise failure
        return len(codes)

    def _enqueue_locked(self) -> int:
        """Hand the coalescing buffer to the executor.

        Inline, the batch runs now.  Pooled, it joins the frontend's
        work queue under the backlog bound, blocking (and releasing the
        lock) while the backlog is full; if the enqueue is refused the
        reads stay buffered for a later retry.
        """
        if not self._buffer:
            return 0
        if self._frontend is None:
            return self._run_inline_locked()
        frontend = self._frontend
        # Chaos hook: a backlog-saturation fault raises a documented
        # ServiceError here, so the all-or-nothing submit unwind is
        # exercised for real.
        _fire_fault("service.frontend.enqueue", session=self)
        while frontend._backlog_count >= frontend._max_backlog:
            frontend._backlog_free.wait()
            # Not _check_open_locked: close() itself enqueues through
            # here after setting _closing — only a dispatch failure or
            # a stopped frontend should abort the wait.
            self._check_failure_locked()
            if not frontend._running:
                raise ServiceError("the mapping frontend has been closed")
        batch = self._take_locked()
        self._pending.append(batch)
        frontend._backlog_count += 1
        frontend._work.notify()
        return len(batch[1])

    def _wait_idle_locked(self) -> None:
        """Wait until every queued batch of this session completed."""
        while self._pending or self._executing:
            if not self._executor_running:
                raise ServiceError(
                    f"the mapping frontend was closed while "
                    f"{self._label} still had reads in flight"
                )
            self._idle.wait()
            self._check_failure_locked()
        self._check_failure_locked()

    # -- execution (called WITHOUT the session lock) ------------------------

    def _execute(self, first: int,
                 codes: np.ndarray) -> "BaseException | None":
        """Run one micro-batch through the engine and fold the result.

        The engine call runs outside the session lock but inside the
        dispatch mutex (the per-session serialisation observability
        relies on).  The fold is one
        :meth:`~repro.core.pipeline.MappingReport.add` under the lock,
        which continues the per-read left fold a one-shot run performs,
        so the aggregate totals are bit-identical to it.  A failure is
        recorded (sticky) and returned; queued batches are dropped so
        blocked feeders and drainers wake instead of hanging.
        """
        with self._dispatch_mutex:
            failure: "BaseException | None" = None
            try:
                if self._frontend is not None:
                    # Chaos hook inside the try: a poisoned read raised
                    # here fails the session like an engine error.
                    _fire_fault("service.frontend.execute", session=self,
                                first_read_index=first)
                report = self._pipeline.run_batched(
                    codes, self._threshold,
                    first_read_index=first)
            except BaseException as exc:  # noqa: BLE001 — kept for the feeder
                failure = exc
            with self._lock:
                if failure is None:
                    self._report.add(report)
                    if not self._retain_mappings:
                        self._report.clear_mappings()
                    self._last_batch = report
                    self._n_dispatched += len(codes)
                    self._n_batches += 1
                else:
                    self._failure = failure
                    dropped = len(self._pending)
                    self._pending.clear()
                    if dropped:
                        self._frontend._backlog_count -= dropped
                        self._frontend._backlog_free.notify_all()
                self._executing = False
                if self._pending:
                    self._frontend._work.notify()
                self._idle.notify_all()
        return failure
