"""Long-running streaming read-mapping service: the standalone session.

Every one-shot execution path hands
:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched` a complete
read block and gets a report back.  A sequencing front-end does not
work like that — reads arrive incrementally, for hours.
:class:`StreamingMappingService` is the long-running entry point: a
:class:`~repro.service.session.MappingSession` over its own
reference, run on the caller's own thread.

* **feed** — reads are submitted one at a time (or from any iterator)
  and coalesced into micro-batches sized by
  :func:`repro.arch.autotune.plan_microbatch`;
* **dispatch** — each full micro-batch runs, before ``submit``
  returns, through
  :meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched` with its
  global read offset as the determinism key base;
* **bounded memory** — the array's cost ledger always compacts
  (:class:`repro.cost.ledger.CostLedger`, bound
  :data:`DEFAULT_SERVICE_COMPACTION`): its events fold into one exact
  checkpoint, so the retained event count plateaus instead of growing
  linearly with the stream;
* **observe** — :meth:`~repro.service.session.MappingSession.stats`
  snapshots a :class:`~repro.service.session.ServiceStats`;
* **drain / close** — ``flush`` runs a partial micro-batch, ``drain``
  flushes and returns the aggregate report, ``close`` drains, releases
  any catalog lease and ends the lifecycle (the service is also a
  context manager).

A failed engine call is sticky: the call that ran it re-raises the
engine's error, every later ``submit`` / ``flush`` / ``drain`` raises
:class:`~repro.errors.ServiceError` chained to it, and ``close`` still
releases the lease before raising.

**Determinism contract.**  Read ``i`` of the stream (0-based
submission order) is keyed as global read ``i``, so a streamed session
is **bit-identical** to one ``run_batched`` call over the same reads
with the same seed — per-read decisions, per-read costs and the
aggregate report — for *any* micro-batch boundaries.
``tests/service/test_service.py`` asserts this over randomized
boundaries, and at soak scale (100k reads, slow lane) while checking
that the compacted ledger stays flat.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.cam.array import StoredReference
from repro.core.matcher import MatcherConfig
from repro.core.pipeline import MappingReport, ReadMapping
from repro.genome.edits import ErrorModel
from repro.genome.reads import ReadRecord
from repro.knobs import validate_reference_source, validate_service_knobs
from repro.service.session import (
    DEFAULT_SERVICE_COMPACTION,
    MappingSession,
    ServiceStats,
    build_pipeline,
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

    A session with its own reference: this constructor resolves the
    knobs and the reference source and builds the engine; feeding,
    lifecycle and observability are
    :class:`~repro.service.session.MappingSession`'s.

    Parameters
    ----------
    segments:
        The reference, in one of three forms: a ``(n_rows, N)`` uint8
        segment matrix (encoded here, once); a
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
    micro_batch:
        Reads coalesced per dispatch; ``None`` autotunes via
        :func:`repro.arch.autotune.plan_microbatch`.
    domain / noisy / seed:
        Array configuration.  The array and the matcher are built with
        the same ``seed``, so a one-shot pipeline built the same way is
        bit-identical.
    retain_mappings:
        Keep every micro-batch's per-read results in the aggregate
        report, as column blocks whose
        :class:`~repro.core.pipeline.ReadMapping` list is built on
        first access (the one-shot behaviour, needed for bit-identity
        comparisons).  ``False`` drops them once each batch has folded
        in (:meth:`~repro.core.pipeline.MappingReport.clear_mappings`),
        bounding result memory for endless streams; the aggregate
        totals stay bit-identical (the same additions run in the same
        order).  Either way :attr:`last_batch_mappings` holds the
        latest batch.
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
                 micro_batch: "int | None" = None,
                 domain: str = "charge",
                 noisy: bool = True,
                 seed: int = 0,
                 retain_mappings: bool = True,
                 catalog: "object | None" = None):
        validate_service_knobs(micro_batch)
        validate_reference_source(segments, catalog=catalog)
        self._lease = None if catalog is None else catalog.borrow(segments)
        try:
            pipeline = build_pipeline(
                segments if self._lease is None else self._lease.reference,
                error_model, config, seed=seed, domain=domain,
                noisy=noisy,
            )
            super().__init__(pipeline, threshold, micro_batch,
                             retain_mappings)
        except BaseException:
            self._release()
            raise

    def close(self) -> MappingReport:
        """Drain, end the lifecycle, release any catalog lease, and
        return the final report.

        Idempotent; every later :meth:`submit` / :meth:`flush` /
        :meth:`drain` raises :class:`~repro.errors.ServiceError`.  A
        catalog lease is released even when the final drain raises (a
        failed service).  Each call returns a fresh defensive snapshot.
        """
        try:
            return super().close()
        finally:
            self._closed = True
            self._release()

    def _release(self) -> None:
        if self._lease is not None:
            self._lease.close()


def stream_mapped(service: StreamingMappingService,
                  reads: "Iterable[np.ndarray] | Iterable[ReadRecord]",
                  ) -> "Iterator[ReadMapping]":
    """Feed *reads* through *service*, yielding mappings as batches
    complete.

    A convenience generator for pull-style callers: each step hands
    :meth:`~repro.service.session.MappingSession.submit_many` one lazy
    slice of up to a micro-batch of reads, and each completed
    micro-batch's :class:`~repro.core.pipeline.ReadMapping` results
    are yielded in read order (the trailing partial batch is flushed
    at the end).  Results are handed off per micro-batch
    (:attr:`StreamingMappingService.last_batch_mappings`), so memory
    stays bounded on endless feeds — pair with
    ``retain_mappings=False`` so the aggregate report does not retain
    them either.
    """
    reads = iter(reads)
    while True:
        before = service.batches_dispatched
        fed = service.submit_many(islice(reads, service.micro_batch))
        # A micro-batch of reads completes at most one micro-batch, and
        # it runs inside this call — a new batch here is always ours.
        if service.batches_dispatched != before:
            yield from service.last_batch_mappings
        if fed < service.micro_batch:
            break
    before = service.batches_dispatched
    service.flush()
    if service.batches_dispatched != before:
        yield from service.last_batch_mappings
