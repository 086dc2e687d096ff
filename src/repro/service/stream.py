"""Long-running streaming read-mapping service: the inline session.

Every one-shot execution path hands
:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched` (or the
sharded pipeline) a complete read block and gets a report back.  A
sequencing front-end does not work like that — reads arrive
incrementally, for hours.  :class:`StreamingMappingService` is the
long-running entry point: a
:class:`~repro.service.session.MappingSession` whose executor is the
caller's own thread.

* **feed** — reads are submitted one at a time (or from any iterator)
  and coalesced into micro-batches sized by
  :func:`repro.arch.autotune.plan_microbatch`;
* **dispatch** — each full micro-batch runs, before ``submit``
  returns, through the batched
  (:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched`) or
  sharded (:meth:`~repro.core.pipeline.ShardedReadMappingPipeline.run`)
  engine with its global read offset as the determinism key base;
* **bounded memory** — the arrays' cost ledgers run in compaction mode
  (:class:`repro.cost.ledger.CostLedger`), folding fully-materialised
  pass events into exact checkpoints, so the retained event count
  plateaus instead of growing linearly with the stream;
* **observe** — :meth:`~repro.service.session.MappingSession.stats`
  snapshots a :class:`~repro.service.session.ServiceStats`;
* **drain / close** — ``flush`` runs a partial micro-batch, ``drain``
  flushes and returns the aggregate report, ``close`` drains, releases
  the engine (and any catalog lease) and ends the lifecycle (the
  service is also a context manager).

A failed engine call is sticky: the call that ran it re-raises the
engine's error, every later ``submit`` / ``flush`` / ``drain`` raises
:class:`~repro.errors.ServiceError` chained to it, and ``close`` still
releases the engine and the lease before raising.

**Determinism contract.**  Read ``i`` of the stream (0-based
submission order) is keyed as global read ``i``, so a streamed session
is **bit-identical** to one ``run_batched`` (or one sharded ``run``)
call over the same reads with the same seeds — per-read decisions,
per-read costs and the aggregate report — for *any* micro-batch
boundaries.  ``tests/service/test_service.py`` asserts this over
randomized boundaries; ``benchmarks/bench_service_stream.py`` asserts
it at soak scale while demonstrating the flat-memory ledger.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.cam.array import StoredReference, as_segments_matrix
from repro.core.matcher import MatcherConfig
from repro.core.pipeline import (
    MappingReport,
    ReadMapping,
    ShardedReadMappingPipeline,
)
from repro.genome.edits import ErrorModel
from repro.genome.reads import ReadRecord
from repro.knobs import validate_reference_source, validate_service_knobs
from repro.service.session import (
    DEFAULT_SERVICE_COMPACTION,
    MappingSession,
    ServiceStats,
    build_pipeline,
    check_engine,
    shard_reference,
)

__all__ = [
    "DEFAULT_SERVICE_COMPACTION",
    "ServiceStats",
    "StreamingMappingService",
    "stream_mapped",
    "validate_service_knobs",
]


class StreamingMappingService(MappingSession):
    """Accept reads incrementally; map them in autotuned micro-batches.

    The one session of the inline executor: this constructor resolves
    the knobs and the reference source and builds the engine; feeding,
    lifecycle and observability are
    :class:`~repro.service.session.MappingSession`'s.

    Parameters
    ----------
    segments:
        The reference, in one of three forms: a ``(n_rows, N)`` uint8
        segment matrix (encoded here, once); a **sealed**
        :class:`~repro.cam.array.StoredReference` — e.g. from
        :func:`repro.refstore.open_stored_reference` — whose encoding
        is reused with **zero** further encode passes; or, with
        ``catalog=``, the *name* of a reference to borrow from the
        catalog.  All three are bit-identical in decisions, costs and
        reports (the reference persistence contract — DESIGN.md).
    error_model:
        Workload error rates driving the HDAC/TASR policies.
    threshold:
        The matching threshold ``T`` applied to every read; a negative
        one raises :class:`~repro.errors.ThresholdError` here, before
        any read is accepted.
    config:
        Strategy configuration (default: the paper's full setting).
    engine:
        ``"batched"`` (one CAM array, the default) or ``"sharded"``
        (the reference partitioned across autotuned shards).
    micro_batch:
        Reads coalesced per dispatch; ``None`` autotunes via
        :func:`repro.arch.autotune.plan_microbatch`.
    compaction:
        Live-event bound handed to every ledger
        (:data:`DEFAULT_SERVICE_COMPACTION`); ``None`` disables
        compaction and reproduces the append-only ledgers of the
        one-shot paths (the memory baseline the soak benchmark
        compares against).
    domain / noisy / seed:
        Array configuration.  The batched engine builds its array with
        ``seed`` and its matcher with the same ``seed`` (the
        convention of ``benchmarks/bench_batch_pipeline.py``); the
        sharded engine derives per-shard seeds exactly as
        :class:`~repro.core.pipeline.ShardedReadMappingPipeline` does
        — so a one-shot pipeline built the same way is bit-identical.
    n_shards / chunk_size / max_workers:
        Sharded-engine knobs, forwarded to the sharded pipeline
        (``None`` autotunes).
    backend:
        Kernel backend for the engine's mismatch-count primitives
        (``None`` = the standard selection order; see
        :mod:`repro.kernels`).  Bit-identical across backends, so a
        streamed session keeps its one-shot bit-identity contract
        whichever backend runs.
    retain_mappings:
        Keep every per-read :class:`~repro.core.pipeline.ReadMapping`
        in the aggregate report (the one-shot behaviour, needed for
        bit-identity comparisons).  ``False`` drops them after their
        counters fold in, bounding result memory for endless streams
        (aggregate totals stay bit-identical — the same additions run
        in the same order).
    catalog:
        A :class:`~repro.refstore.ReferenceCatalog` to borrow the
        reference from; ``segments`` must then be a registered
        reference *name*.  The lease pins the mapped file for the
        service's lifetime (the catalog will not evict it) and is
        released by :meth:`close`.
    """

    def __init__(self,
                 segments: "np.ndarray | StoredReference | str",
                 error_model: ErrorModel,
                 threshold: int,
                 config: "MatcherConfig | None" = None,
                 engine: str = "batched",
                 micro_batch: "int | None" = None,
                 compaction: "int | None" = DEFAULT_SERVICE_COMPACTION,
                 domain: str = "charge",
                 noisy: bool = True,
                 seed: int = 0,
                 n_shards: "int | None" = None,
                 chunk_size: "int | None" = None,
                 max_workers: "int | None" = None,
                 backend: "str | None" = None,
                 retain_mappings: bool = True,
                 catalog: "object | None" = None):
        validate_service_knobs(micro_batch, compaction,
                               max_workers=max_workers, backend=backend)
        check_engine(engine)
        validate_reference_source(segments, catalog=catalog)
        self._lease = None if catalog is None else catalog.borrow(segments)
        pipeline = None
        try:
            source = segments if self._lease is None else self._lease.reference
            if isinstance(source, StoredReference):
                # Pre-encoded (catalog lease or caller-owned): zero
                # encode passes — the engine borrows it, sharded into
                # zero-copy slices.
                n_rows, cols = source.n_segments, source.cols
                source, chunk_size = shard_reference(engine, source,
                                                     n_shards, chunk_size)
                n_shards = None
            else:
                source = as_segments_matrix(source)
                n_rows, cols = source.shape
            pipeline = build_pipeline(
                engine, source, error_model, config, seed=seed,
                compaction=compaction, backend=backend, domain=domain,
                noisy=noisy, n_shards=n_shards, chunk_size=chunk_size,
                max_workers=max_workers,
            )
            super().__init__(
                None, 0, engine, pipeline, threshold, micro_batch,
                retain_mappings,
                (n_rows, cols,
                 1 if engine == "batched" else pipeline.n_shards),
            )
        except BaseException:
            self._release(pipeline)
            raise

    def close(self) -> MappingReport:
        """Drain, end the lifecycle, release the engine, and return the
        final report.

        Idempotent; every later :meth:`submit` / :meth:`flush` /
        :meth:`drain` raises :class:`~repro.errors.ServiceError`.  The
        sharded engine's fan-out pool and a catalog lease are released
        even when the final drain raises (a failed service).  Each call
        returns a fresh defensive snapshot.
        """
        try:
            return super().close()
        finally:
            self._closed = True
            self._release(self._pipeline)

    def _release(self, pipeline) -> None:
        if isinstance(pipeline, ShardedReadMappingPipeline):
            pipeline.close()
        if self._lease is not None:
            # Unpin the catalog reference only after the engines that
            # searched its arrays are gone.
            self._lease.close()


def stream_mapped(service: StreamingMappingService,
                  reads: "Iterable[np.ndarray] | Iterable[ReadRecord]",
                  ) -> "Iterator[ReadMapping]":
    """Feed *reads* through *service*, yielding mappings as batches
    complete.

    A convenience generator for pull-style callers: reads are
    submitted lazily and each completed micro-batch's
    :class:`~repro.core.pipeline.ReadMapping` results are yielded in
    read order (the trailing partial batch is flushed at the end).
    Results are handed off per micro-batch
    (:attr:`StreamingMappingService.last_batch_mappings`), so memory
    stays bounded on endless feeds — pair with
    ``retain_mappings=False`` so the aggregate report does not retain
    them either.
    """
    for read in reads:
        before = service.batches_dispatched
        service.submit(read)
        # One submit runs at most one micro-batch, and it does so
        # inside this call — a new batch here is always ours.
        if service.batches_dispatched != before:
            yield from service.last_batch_mappings
    before = service.batches_dispatched
    service.flush()
    if service.batches_dispatched != before:
        yield from service.last_batch_mappings
