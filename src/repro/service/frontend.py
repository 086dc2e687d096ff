"""Multi-session concurrent mapping front end over one shared reference.

The accelerator's whole economic argument is amortisation: one
expensive resource — the reference, encoded and stored in the CAM
arrays — serves an entire read workload.  The standalone
:class:`~repro.service.stream.StreamingMappingService` models the
*time* axis of that amortisation (one long-running feed);
:class:`MappingFrontend` adds the *client* axis:

* **encode once** — the reference is resolved exactly once into a
  sealed, immutable :class:`~repro.cam.array.StoredReference` shared
  by every session.  It may be a segment matrix (encoded here),
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
  frontend-wide; a full backlog blocks the submitting thread until a
  worker frees a slot.

**Session-isolation contract.**  A session is the same
:class:`~repro.service.session.MappingSession` as the standalone
service, run by a different executor, so with the same ``(seed,
threshold, micro_batch)`` and reads it is
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
from dataclasses import dataclass

import numpy as np

from repro.arch.autotune import plan_service_pool
from repro.cam.array import StoredReference, as_segments_matrix
from repro.core.matcher import MatcherConfig
from repro.cost.events import ReferenceLoad
from repro.cost.ledger import CostLedger
from repro.errors import CamConfigError, ServiceError
from repro.genome.edits import ErrorModel
from repro.knobs import (
    check_count,
    validate_reference_source,
    validate_service_knobs,
)
from repro.service.session import MappingSession, build_pipeline

__all__ = ["MappingFrontend", "MappingSession"]


@dataclass(frozen=True)
class _RefState:
    """One resolved reference source, shared by every session over it.

    ``reference`` is the sealed reference every session borrows (the
    encode of a segment matrix, else the adopted reference itself);
    ``lease`` pins a catalog reference for the frontend's lifetime.
    """

    lease: "object | None"
    reference: StoredReference


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
    domain / noisy:
        Array configuration shared by every session's arrays.
    pool_workers:
        Dispatch workers in the persistent pool; ``None`` autotunes
        via :func:`repro.arch.autotune.plan_service_pool`.
    max_backlog:
        Queued micro-batches (frontend-wide) before a submit that
        fills the backlog waits for a worker; ``None`` autotunes (from
        the resolved worker count).
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
        once (pinned until :meth:`close`) and never runs an encode
        pass — :meth:`encode_count` stays 0.  The catalog
        belongs to the caller and is left open by :meth:`close`.
    """

    def __init__(self,
                 segments: "np.ndarray | StoredReference | None",
                 error_model: ErrorModel,
                 config: "MatcherConfig | None" = None,
                 domain: str = "charge",
                 noisy: bool = True,
                 pool_workers: "int | None" = None,
                 max_backlog: "int | None" = None,
                 backend: "str | None" = None,
                 catalog: "object | None" = None):
        validate_service_knobs(backend=backend)
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
        check_count("pool_workers", pool_workers, ServiceError)
        check_count("max_backlog", max_backlog, ServiceError)
        self._model = error_model
        self._config = config
        self._domain = domain
        self._noisy = bool(noisy)
        self._backend = backend
        self._catalog = catalog
        #: Frontend-level traffic ledger; holds the single
        #: ReferenceLoad per resolved reference (the encode-once
        #: evidence) — session ledgers only ever see search passes.
        self._ledger = CostLedger()
        self._ref_lock = threading.Lock()
        #: Resolved references by catalog name; a segments (or stored
        #: reference) frontend holds its one pre-resolved state under
        #: ``None``.
        self._ref_states: "dict[str | None, _RefState]" = {}
        self._default: "_RefState | None" = None
        if catalog is None:
            self._default = self._ref_states[None] = self._resolve(segments)

        # --- persistent dispatch pool ----------------------------------
        # The backlog scales with the *resolved* worker count (an
        # explicit pool_workers override included).
        plan = plan_service_pool(pool_workers)
        self._pool_workers = plan.n_workers
        self._max_backlog = int(plan.max_backlog if max_backlog is None
                                else max_backlog)
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
    def cols(self) -> "int | None":
        """Reference segment width (every read must match it) —
        ``None`` on a catalog frontend, where each session's width
        follows its named reference."""
        return None if self._default is None else self._default.reference.cols

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
        """Queued micro-batches before a submit waits for a worker."""
        return self._max_backlog

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ledger(self) -> CostLedger:
        """Frontend-level traffic ledger (the
        :class:`~repro.cost.events.ReferenceLoad` events live here —
        recorded once per reference, not per session)."""
        return self._ledger

    @property
    def stored_references(self) -> "tuple[StoredReference, ...]":
        """The shared, sealed references — on a catalog frontend, every
        reference opened so far (open order)."""
        with self._ref_lock:
            return tuple(state.reference
                         for state in self._ref_states.values())

    def encode_count(self) -> int:
        """Total one-hot encode passes behind the shared references —
        1 for a segment matrix, the adopted reference's own
        ``n_encodes`` otherwise (**0** for a catalog's mmap-opened
        files), however many sessions open (the encode-once
        evidence)."""
        with self._ref_lock:
            return sum(state.reference.n_encodes
                       for state in self._ref_states.values())

    @property
    def sessions(self) -> "tuple[MappingSession, ...]":
        """Every session ever opened (open order)."""
        with self._lock:
            return tuple(self._sessions)

    # -- reference resolution -----------------------------------------------

    def _resolve(self, source, lease=None) -> _RefState:
        """Resolve one reference source into the shared reference, once.

        A segment matrix is encoded; a sealed reference — the caller's,
        or a catalog *lease*'s — is adopted as is.
        """
        if not isinstance(source, StoredReference):
            source = StoredReference.encode(as_segments_matrix(source))
        self._ledger.record(ReferenceLoad(
            n_segments=source.n_segments, n_cells=source.cols,
        ))
        return _RefState(lease, source)

    def _reference_state(self, name: str) -> _RefState:
        """The shared state of catalog reference *name*, borrowed (and
        pinned until :meth:`close`) on first use.

        The open check runs under ``_ref_lock``: :meth:`close` stops the
        frontend before it takes that lock to unpin, so a lease borrowed
        here is always one :meth:`close` releases.
        """
        with self._ref_lock:
            if not self._running:
                raise ServiceError("the mapping frontend has been closed")
            state = self._ref_states.get(name)
            if state is None:
                lease = self._catalog.borrow(name)
                state = self._ref_states[name] = self._resolve(
                    lease.reference, lease)
            return state

    # -- session factory ----------------------------------------------------

    def session(self, threshold: int,
                seed: int = 0,
                micro_batch: "int | None" = None,
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
        ``retain_mappings`` and kernel
        ``backend`` (``None`` = the frontend's default).  The expensive
        reference state is *not* rebuilt: only per-session
        arrays/matchers/ledgers are.

        On a catalog frontend ``reference`` names the catalog entry
        this session maps against (required; sessions over different
        names coexist, each reference opened once).  On any
        other frontend ``reference`` must stay ``None``.
        """
        validate_service_knobs(micro_batch, backend=backend)
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
            state.reference, self._model, config or self._config,
            seed=seed, backend=self._backend if backend is None else backend,
            domain=self._domain, noisy=self._noisy,
        )
        with self._lock:
            if not self._running:
                raise ServiceError("the mapping frontend has been closed")
            session = MappingSession(
                self, len(self._sessions), pipeline, threshold,
                micro_batch, retain_mappings,
            )
            self._sessions.append(session)
            return session

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain every open session, stop the workers and release the
        shared references.

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
