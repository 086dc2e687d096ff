"""Multi-session mapping front end over one shared reference.

The accelerator's whole economic argument is amortisation: one
expensive resource — the reference, encoded and stored in the CAM
arrays — serves an entire read workload.  The standalone
:class:`~repro.service.stream.StreamingMappingService` models the
*time* axis of that amortisation (one long-running feed);
:class:`MappingFrontend` adds the *client* axis:

* **encode once** — the reference is resolved exactly once into a
  immutable :class:`~repro.cam.array.StoredReference` shared
  by every session.  It may be a segment matrix (encoded here),
  a stored reference, or — with a catalog — a reference name
  per session (both adopted with zero encode passes);
* **many sessions** — :meth:`MappingFrontend.session` opens an
  independent :class:`~repro.service.session.MappingSession`: its own
  seed (keyed noise prefix, HDAC stream), threshold, micro-batch size,
  cost ledger and aggregate report, all borrowing the
  shared reference;
* **no threads of its own** — each session runs its micro-batches on
  the thread that feeds it, exactly as the standalone service does.
  Sessions fed from different client threads run concurrently; the
  parallelism inside one engine call is the count kernel's BLAS
  (DESIGN.md, "Layer audit: one session executor").

**Session-isolation contract.**  A session is the same
:class:`~repro.service.session.MappingSession` as the standalone
service, built by the same function, so with the same ``(seed,
threshold, micro_batch)`` and reads it is
**bit-identical** to a standalone service, however many other
sessions run, however their feeds interleave and wherever micro-batch
boundaries fall: every random draw is keyed by ``(seed, read index,
pass)``, the shared reference is immutable, and per-session state is
never shared.  A failed engine call is sticky on its own session only.
``tests/service/test_frontend.py`` keeps the twin comparison as a
regression test; DESIGN.md states the binding rules.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.cam.array import StoredReference, as_segments_matrix
from repro.cost.events import ReferenceLoad
from repro.cost.ledger import CostLedger
from repro.errors import CamConfigError, ServiceError
from repro.genome.edits import ErrorModel
from repro.knobs import validate_reference_source, validate_service_knobs
from repro.service.session import MappingSession, build_pipeline

__all__ = ["MappingFrontend", "MappingSession"]


@dataclass(frozen=True)
class _RefState:
    """One resolved reference source, shared by every session over it.

    ``reference`` is the reference every session borrows (the
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
        session — or a
        :class:`~repro.cam.array.StoredReference`, adopted with zero
        encode passes.  Must be ``None`` when ``catalog=`` is given: a
        catalog frontend encodes *nothing*; each session names the
        stored reference it maps against.
    error_model:
        Workload error rates driving the HDAC/TASR policies (shared:
        the policies are a property of the stored workload).  Every
        session runs the paper matcher (both strategies on) over a
        noisy charge-domain array.
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
                 catalog: "object | None" = None):
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
        self._model = error_model
        self._catalog = catalog
        #: Frontend-level traffic ledger; holds the single
        #: ReferenceLoad per resolved reference (the encode-once
        #: evidence) — session ledgers only ever see search passes.
        self._ledger = CostLedger()
        #: Guards the reference states, the session table and the open
        #: flag: ``close`` clears the flag before it closes sessions or
        #: unpins leases, so nothing opened after it is left running.
        self._lock = threading.Lock()
        #: Resolved references by catalog name; a segments (or stored
        #: reference) frontend holds its one pre-resolved state under
        #: ``None``.
        self._ref_states: "dict[str | None, _RefState]" = {}
        self._default: "_RefState | None" = None
        #: Open order -> session, held weakly: a session its caller
        #: dropped is collected with its engine, closed or not.
        self._sessions = weakref.WeakValueDictionary()
        self._n_opened = 0
        self._running = True
        self._closed = False
        if catalog is None:
            self._default = self._ref_states[None] = self._resolve(segments)

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
        """Always 0: sessions run on the threads that feed them.

        Kept read-only for the benchmark's configuration record, which
        still reads it; it goes with the PR that edits ``perfbench/``
        (ROADMAP item 1).
        """
        return 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ledger(self) -> CostLedger:
        """Frontend-level traffic ledger (the
        :class:`~repro.cost.events.ReferenceLoad` events fold here —
        once per reference, not per session; its ``event_counts()``
        counts them)."""
        return self._ledger

    @property
    def stored_references(self) -> "tuple[StoredReference, ...]":
        """The shared references — on a catalog frontend, every
        reference opened so far (open order)."""
        with self._lock:
            return tuple(state.reference
                         for state in self._ref_states.values())

    def encode_count(self) -> int:
        """Total one-hot encode passes behind the shared references —
        1 for a segment matrix, the adopted reference's own
        ``n_encodes`` otherwise (**0** for a catalog's mmap-opened
        files), however many sessions open (the encode-once
        evidence)."""
        with self._lock:
            return sum(state.reference.n_encodes
                       for state in self._ref_states.values())

    @property
    def sessions(self) -> "tuple[MappingSession, ...]":
        """Every opened session something else still references (open
        order).

        The frontend holds its sessions weakly, so a session its caller
        dropped is collected, engine and ledgers included, and leaves
        this tuple; a session still referenced stays listed after it
        closes.
        """
        with self._lock:
            return tuple(self._sessions.values())

    # -- reference resolution -----------------------------------------------

    def _resolve(self, source, lease=None) -> _RefState:
        """Resolve one reference source into the shared reference, once.

        A segment matrix is encoded; a stored reference — the caller's,
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

        The open check runs under the frontend lock, which :meth:`close`
        holds to stop the frontend and again to unpin, so a lease
        borrowed here is always one :meth:`close` releases.
        """
        with self._lock:
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
                reference: "str | None" = None) -> MappingSession:
        """Open an independent mapping session over the shared
        reference.

        Parameters mirror :class:`~repro.service.stream.
        StreamingMappingService`: per-session ``seed`` (determinism
        key base), ``threshold`` (``0..N``, the reference width,
        checked here: :class:`~repro.errors.ThresholdError`),
        ``micro_batch``
        (``None`` autotunes — same plan as the standalone service) and
        ``retain_mappings``.  The expensive
        reference state is *not* rebuilt: only per-session
        arrays/matchers/ledgers are.

        On a catalog frontend ``reference`` names the catalog entry
        this session maps against (required; sessions over different
        names coexist, each reference opened once).  On any
        other frontend ``reference`` must stay ``None``.
        """
        validate_service_knobs(micro_batch)
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
        pipeline = build_pipeline(state.reference, self._model, None,
                                  seed=seed, domain="charge", noisy=True)
        with self._lock:
            if not self._running:
                raise ServiceError("the mapping frontend has been closed")
            index = self._n_opened
            session = MappingSession(
                pipeline, threshold, micro_batch, retain_mappings,
                index=index, label=f"session {index}",
            )
            self._sessions[index] = session
            self._n_opened += 1
            return session

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop opening sessions, drain and close every open one, and
        release the shared references.

        Idempotent.  New sessions are refused first, so a
        :meth:`session` call racing this one either raises
        :class:`~repro.errors.ServiceError` or returns a session that
        is closed here.  Only sessions still alive are swept (a dropped
        one was collected with whatever it buffered).  Sessions that
        already failed are skipped
        (their owners saw — or will see — the ``ServiceError``);
        everything else is drained first (each close waits for a batch
        another thread has in flight), so no accepted read is silently
        dropped.
        """
        with self._lock:
            if self._closed:
                return
            self._running = False
            sessions = tuple(self._sessions.values())
        for session in sessions:
            if not session.closed:
                try:
                    session.close()
                except ServiceError:
                    pass  # failed session: its owner handles the error
        with self._lock:
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
