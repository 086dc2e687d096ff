"""Multi-session concurrent mapping front end over one shared reference.

The accelerator's whole economic argument is amortisation: one
expensive resource — the reference, encoded and stored in the CAM
arrays — serves an entire read workload.  The standalone
:class:`~repro.service.stream.StreamingMappingService` models the
*time* axis of that amortisation (one long-running feed);
:class:`MappingFrontend` adds the *client* axis:

* **encode once** — the reference is resolved exactly once into
  sealed, immutable :class:`~repro.cam.array.StoredReference` shards
  shared by every session.  It may be a segment matrix (encoded here),
  a sealed stored reference, or — with a catalog — a reference name
  per session (both adopted with zero encode passes);
* **many sessions** — :meth:`MappingFrontend.session` opens an
  independent :class:`~repro.service.session.MappingSession`: its own
  seed (keyed noise prefix, HDAC stream), threshold, micro-batch size,
  compacting cost ledgers and aggregate report, all borrowing the
  shared reference;
* **one worker pool** — the sessions' *pooled* executor: a persistent,
  autotuned (:func:`repro.arch.autotune.plan_service_pool`) pool of
  dispatch workers runs queued micro-batches **fairly**, round-robin
  across sessions with pending work, so one heavy feed cannot starve
  the others; a session's own batches run serially, in submission
  order, which keeps its report folding deterministic;
* **bounded backlog** — at most ``max_backlog`` queued micro-batches
  frontend-wide; a full backlog either blocks the submitting thread
  (``backpressure="block"``, the default) or raises
  :class:`~repro.errors.ServiceError` (``backpressure="error"``);
* for the sharded engine, every session's pipeline shares one shard
  fan-out thread pool.

**Session-isolation contract.**  A session is the same
:class:`~repro.service.session.MappingSession` as the standalone
service, run by a different executor, so with the same ``(seed,
threshold, micro_batch, compaction)`` and reads it is
**bit-identical** to a standalone service, however many other
sessions run, however their feeds interleave, however many pool
workers exist and wherever micro-batch boundaries fall: every random
draw is keyed by ``(seed, read index, pass)``, the shared reference is
immutable, and per-session state is never shared.  A failed engine
call is sticky on its own session only.  ``tests/service/
test_frontend.py`` keeps the twin comparison as a regression test of
the two executors; DESIGN.md states the binding rules.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.arch.autotune import MIN_SERVICE_BACKLOG, plan_service_pool
from repro.cam.array import StoredReference, as_segments_matrix
from repro.core.matcher import MatcherConfig
from repro.core.pipeline import encode_shard_references
from repro.cost.events import ReferenceLoad
from repro.cost.ledger import CostLedger
from repro.errors import CamConfigError, ServiceError
from repro.genome.edits import ErrorModel
from repro.knobs import validate_reference_source, validate_service_knobs
from repro.service.session import (
    DEFAULT_SERVICE_COMPACTION,
    MappingSession,
    build_pipeline,
    check_engine,
    shard_reference,
)

__all__ = ["MappingFrontend", "MappingSession"]

_BACKPRESSURE = ("block", "error")


@dataclass(frozen=True)
class _RefState:
    """One resolved reference source, shared by every session over it.

    ``roots`` are the references whose encode passes this state owns
    (the per-shard encodes of a segment matrix, else the adopted
    reference itself); ``lease`` pins a catalog reference for the
    frontend's lifetime.
    """

    lease: "object | None"
    roots: "tuple[StoredReference, ...]"
    shards: "tuple[StoredReference, ...]"
    n_rows: int
    cols: int
    chunk_size: "int | None"


class MappingFrontend:
    """Serve N concurrent mapping sessions over one encoded reference.

    Parameters
    ----------
    segments:
        The shared reference: a ``(n_rows, N)`` uint8 segment matrix —
        encoded and stored **once**, at construction, for every
        session — or a **sealed**
        :class:`~repro.cam.array.StoredReference`, adopted with zero
        encode passes.  Must be ``None`` when ``catalog=`` is given: a
        catalog frontend encodes *nothing*; each session names the
        stored reference it maps against.
    error_model:
        Workload error rates driving the HDAC/TASR policies (shared:
        the policies are a property of the stored workload).
    config:
        Default strategy configuration for sessions (each session may
        override).
    engine:
        ``"batched"`` (one shared array image) or ``"sharded"`` (the
        reference partitioned across autotuned shards; sessions share
        the per-shard references *and* one shard fan-out executor).
    domain / noisy:
        Array configuration shared by every session's arrays.
    n_shards / chunk_size:
        Sharded-engine knobs, resolved exactly as
        :class:`~repro.core.pipeline.ShardedReadMappingPipeline`
        resolves them (``None`` autotunes) — a frontend session is
        therefore bit-identical to a standalone sharded service built
        with the same knobs.
    pool_workers:
        Dispatch workers in the persistent pool; ``None`` autotunes
        via :func:`repro.arch.autotune.plan_service_pool`.
    max_backlog:
        Queued micro-batches (frontend-wide) before backpressure
        engages; ``None`` autotunes.
    backpressure:
        ``"block"`` (default): a submit that fills the backlog waits
        for a worker; ``"error"``: it raises
        :class:`~repro.errors.ServiceError` and leaves the reads
        buffered for a later retry.
    backend:
        Default kernel backend for every session's arrays (``None`` =
        the standard selection order; see :mod:`repro.kernels`);
        individual sessions may override it.  Bit-identical across
        backends, so the frontend/standalone equivalence holds
        whichever backend runs.
    catalog:
        A :class:`~repro.refstore.ReferenceCatalog` to serve stored
        references from.  Sessions then pass ``reference=<name>`` to
        :meth:`session`; the frontend borrows each named reference
        once (pinned until :meth:`close`), slices it into the same
        bank ranges a segments frontend would encode, and never runs
        an encode pass — :meth:`encode_count` stays 0.  The catalog
        belongs to the caller and is left open by :meth:`close`.
    """

    def __init__(self,
                 segments: "np.ndarray | StoredReference | None",
                 error_model: ErrorModel,
                 config: "MatcherConfig | None" = None,
                 engine: str = "batched",
                 domain: str = "charge",
                 noisy: bool = True,
                 n_shards: "int | None" = None,
                 chunk_size: "int | None" = None,
                 pool_workers: "int | None" = None,
                 max_backlog: "int | None" = None,
                 backpressure: str = "block",
                 backend: "str | None" = None,
                 catalog: "object | None" = None):
        validate_service_knobs(backend=backend)
        check_engine(engine)
        if backpressure not in _BACKPRESSURE:
            raise ServiceError(
                f"backpressure must be one of {_BACKPRESSURE}, got "
                f"{backpressure!r}"
            )
        if catalog is not None and segments is not None:
            raise CamConfigError(
                "a catalog frontend takes no construction-time "
                "segments; each session names its reference "
                "(session(..., reference=<name>))"
            )
        if catalog is None and segments is None:
            raise CamConfigError(
                "segments is required unless a catalog= is given"
            )
        if catalog is None:
            validate_reference_source(segments)
        for name, value in (("pool_workers", pool_workers),
                            ("max_backlog", max_backlog)):
            if value is not None and int(value) < 1:
                raise ServiceError(f"{name} must be positive, got {value}")
        self._engine_kind = engine
        self._model = error_model
        self._config = config
        self._domain = domain
        self._noisy = bool(noisy)
        self._backend = backend
        self._backpressure = backpressure
        self._catalog = catalog
        self._req_n_shards = n_shards
        self._req_chunk_size = chunk_size
        #: Frontend-level traffic ledger; holds the single
        #: ReferenceLoad per shard (the encode-once evidence) — session
        #: ledgers only ever see search passes.
        self._ledger = CostLedger()
        self._shard_executor: "ThreadPoolExecutor | None" = None
        self._ref_lock = threading.Lock()
        #: Resolved references by catalog name; a segments (or stored
        #: reference) frontend holds its one pre-resolved state under
        #: ``None``.
        self._ref_states: "dict[str | None, _RefState]" = {}
        self._default: "_RefState | None" = None
        if catalog is None:
            self._default = self._ref_states[None] = self._resolve(segments)
            plan = plan_service_pool(n_shards=len(self._default.shards))
        else:
            # Reference geometry is unknown until sessions open, so
            # the dispatch pool assumes a fan-out of 1 unless the
            # caller pinned n_shards; pass pool_workers to tune.
            plan = plan_service_pool(n_shards=max(1, n_shards or 1))

        # --- persistent dispatch pool ----------------------------------
        self._pool_workers = int(plan.n_workers if pool_workers is None
                                 else pool_workers)
        # Scale with the *resolved* worker count (an explicit
        # pool_workers override included), not the plan's.
        self._max_backlog = int(
            max(MIN_SERVICE_BACKLOG, 2 * self._pool_workers)
            if max_backlog is None else max_backlog
        )
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._backlog_free = threading.Condition(self._lock)
        self._backlog_count = 0
        self._sessions: "list[MappingSession]" = []
        self._rr_next = 0
        self._running = True
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"asmcap-frontend-worker-{i}",
                             daemon=True)
            for i in range(self._pool_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- configuration ------------------------------------------------------

    @property
    def engine(self) -> str:
        """``"batched"`` or ``"sharded"``."""
        return self._engine_kind

    @property
    def cols(self) -> "int | None":
        """Reference segment width (every read must match it) —
        ``None`` on a catalog frontend, where each session's width
        follows its named reference."""
        return None if self._default is None else self._default.cols

    @property
    def n_shards(self) -> int:
        """Shards the reference is partitioned across (1 = batched;
        0 on a catalog frontend, whose shard counts are per
        reference)."""
        return 0 if self._default is None else len(self._default.shards)

    @property
    def catalog(self) -> "object | None":
        """The :class:`~repro.refstore.ReferenceCatalog` sessions
        borrow from (``None`` otherwise)."""
        return self._catalog

    @property
    def pool_workers(self) -> int:
        """Persistent dispatch-worker threads."""
        return self._pool_workers

    @property
    def max_backlog(self) -> int:
        """Queued micro-batches before backpressure engages."""
        return self._max_backlog

    @property
    def backpressure(self) -> str:
        """``"block"`` or ``"error"``."""
        return self._backpressure

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ledger(self) -> CostLedger:
        """Frontend-level traffic ledger (the per-shard
        :class:`~repro.cost.events.ReferenceLoad` events live here —
        recorded once per reference, not per session)."""
        return self._ledger

    @property
    def stored_references(self) -> "tuple[StoredReference, ...]":
        """The shared, sealed shard references — on a catalog frontend,
        every shard of every reference opened so far (open order)."""
        with self._ref_lock:
            return tuple(shard for state in self._ref_states.values()
                         for shard in state.shards)

    def encode_count(self) -> int:
        """Total one-hot encode passes behind the shared references —
        :attr:`n_shards` for a segment matrix, the adopted reference's
        own ``n_encodes`` otherwise (**0** for a catalog's mmap-opened
        files), however many sessions open (the encode-once
        evidence)."""
        with self._ref_lock:
            return sum(root.n_encodes for state in self._ref_states.values()
                       for root in state.roots)

    @property
    def sessions(self) -> "tuple[MappingSession, ...]":
        """Every session ever opened (open order)."""
        with self._lock:
            return tuple(self._sessions)

    # -- reference resolution -----------------------------------------------

    def _resolve(self, source, lease=None) -> _RefState:
        """Resolve one reference source into shared shards, once.

        A segment matrix is encoded (per shard, at the bank ranges
        :func:`~repro.core.pipeline.encode_shard_references` cuts); a
        sealed reference — the caller's, or a catalog *lease*'s — is
        sliced zero-copy at the same ranges.  The first sharded
        reference also sizes the one shard fan-out pool every session
        shares.
        """
        try:
            if lease is not None:
                source = lease.reference
            if isinstance(source, StoredReference):
                roots = (source,)
                n_rows, cols = source.n_segments, source.cols
                shards, chunk_size = shard_reference(
                    self._engine_kind, source, self._req_n_shards,
                    self._req_chunk_size)
            else:
                segments = as_segments_matrix(source)
                n_rows, cols = segments.shape
                if self._engine_kind == "batched":
                    shards, chunk_size = (
                        (StoredReference.encode(segments),), None)
                else:
                    shards, chunk_size = encode_shard_references(
                        segments, n_shards=self._req_n_shards,
                        chunk_size=self._req_chunk_size)
                roots = shards
            if self._engine_kind == "sharded" \
                    and self._shard_executor is None:
                # One fan-out shared by every reference, sized for the
                # first one's geometry.
                plan = plan_service_pool(n_shards=len(shards))
                self._shard_executor = ThreadPoolExecutor(
                    max_workers=max(1, plan.shard_workers),
                    thread_name_prefix="asmcap-frontend-shard",
                )
        except BaseException:
            if lease is not None:
                lease.close()
            raise
        for shard in shards:
            self._ledger.record(ReferenceLoad(
                n_segments=shard.n_segments, n_cells=shard.cols,
            ))
        return _RefState(lease, roots, shards, int(n_rows), int(cols),
                         chunk_size)

    def _reference_state(self, name: str) -> _RefState:
        """The shared state of catalog reference *name*, borrowed (and
        pinned until :meth:`close`) on first use."""
        with self._ref_lock:
            state = self._ref_states.get(name)
            if state is None:
                state = self._ref_states[name] = self._resolve(
                    name, self._catalog.borrow(name))
            return state

    # -- session factory ----------------------------------------------------

    def session(self, threshold: int,
                seed: int = 0,
                micro_batch: "int | None" = None,
                compaction: "int | None" = DEFAULT_SERVICE_COMPACTION,
                retain_mappings: bool = True,
                config: "MatcherConfig | None" = None,
                backend: "str | None" = None,
                reference: "str | None" = None) -> MappingSession:
        """Open an independent mapping session over the shared
        reference.

        Parameters mirror :class:`~repro.service.stream.
        StreamingMappingService`: per-session ``seed`` (determinism
        key base), ``threshold`` (non-negative, checked here:
        :class:`~repro.errors.ThresholdError`), ``micro_batch``
        (``None`` autotunes — same plan as the standalone service),
        ledger ``compaction``, ``retain_mappings`` and kernel
        ``backend`` (``None`` = the frontend's default).  The expensive
        reference state is *not* rebuilt: only per-session
        arrays/matchers/ledgers are.

        On a catalog frontend ``reference`` names the catalog entry
        this session maps against (required; sessions over different
        names coexist, each reference opened and sliced once).  On any
        other frontend ``reference`` must stay ``None``.
        """
        validate_service_knobs(micro_batch, compaction, backend=backend)
        if self._catalog is None:
            if reference is not None:
                raise ServiceError(
                    f"reference={reference!r} needs a catalog frontend "
                    f"(MappingFrontend(None, ..., catalog=...))"
                )
            state = self._default
        elif reference is None:
            raise ServiceError(
                "this frontend serves a reference catalog; name the "
                "session's reference: session(..., reference=<name>)"
            )
        else:
            state = self._reference_state(reference)
        pipeline = build_pipeline(
            self._engine_kind, state.shards, self._model,
            config or self._config, seed=seed, compaction=compaction,
            backend=self._backend if backend is None else backend,
            domain=self._domain, noisy=self._noisy,
            chunk_size=state.chunk_size, executor=self._shard_executor,
        )
        with self._lock:
            if not self._running:
                raise ServiceError("the mapping frontend has been closed")
            session = MappingSession(
                self, len(self._sessions), self._engine_kind, pipeline,
                threshold, micro_batch, retain_mappings,
                (state.n_rows, state.cols, len(state.shards)),
            )
            self._sessions.append(session)
            return session

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain every open session, stop the workers, release the
        shared references and fan-outs.

        Idempotent.  Sessions that already failed are skipped (their
        owners saw — or will see — the ``ServiceError``); everything
        else is drained through the still-running workers first, so no
        accepted read is silently dropped.
        """
        if self._closed:
            return
        for session in self.sessions:
            if not session.closed:
                try:
                    session.close()
                except ServiceError:
                    pass  # failed session: its owner handles the error
        with self._lock:
            self._running = False
            self._work.notify_all()
            self._backlog_free.notify_all()
            # Wake any drainer of a session that raced past the drain
            # sweep above (opened concurrently with this close) so it
            # raises instead of waiting on workers that are gone.
            for session in self._sessions:
                session._idle.notify_all()
        for thread in self._threads:
            thread.join()
        if self._shard_executor is not None:
            self._shard_executor.shutdown(wait=True)
        with self._ref_lock:
            # Unpin catalog leases so the catalog may evict.  The
            # catalog itself belongs to the caller and stays open.
            for state in self._ref_states.values():
                if state.lease is not None:
                    state.lease.close()
        self._closed = True

    def __enter__(self) -> "MappingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- pooled executor ----------------------------------------------------

    def _next_task_locked(self):
        """Pick the next ``(session, batch)`` fairly — round-robin over
        sessions with pending work whose serial slot is free."""
        n = len(self._sessions)
        for offset in range(n):
            position = (self._rr_next + offset) % n
            session = self._sessions[position]
            if session._pending and not session._executing:
                self._rr_next = (position + 1) % n
                return session, session._pending.popleft()
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                task = self._next_task_locked()
                while task is None:
                    if not self._running:
                        return
                    self._work.wait()
                    task = self._next_task_locked()
                session, (first, codes) = task
                session._executing = True
                self._backlog_count -= 1
                self._backlog_free.notify_all()
            session._execute(first, codes)
