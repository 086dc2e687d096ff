"""Long-running streaming execution: the service layer.

One-shot experiments hand the engines a complete read block;
:mod:`repro.service` keeps the system up while reads arrive
incrementally, with flat memory.  It has one session type, run on
the thread that feeds it:

* :class:`MappingSession` (:mod:`repro.service.session`) — the one
  session core: it coalesces reads into autotuned micro-batches, keys
  them by stream offset, runs the batched engine and folds the
  aggregate report.  Its cost ledger
  (:class:`repro.cost.ledger.CostLedger`) is a running fold that keeps
  no event, so memory stays flat;
* :class:`StreamingMappingService` — one standalone session over its
  own reference, whose micro-batches run on the caller's thread before
  ``submit`` returns;
* :class:`MappingFrontend` — the reference is resolved and stored
  **once** and many sessions are opened over it, each run on the
  thread that feeds it (the frontend starts no thread); each session
  is bit-identical to a standalone :class:`StreamingMappingService`
  with the same seed and reads, by construction;
* :class:`ServiceStats` — the observability snapshot (throughput,
  reads in flight, per-strategy pass counts, energy/latency from the
  ledger's running sums);
* :func:`stream_mapped` — a pull-style generator over a service.

A failed engine call is sticky on its session: later calls raise
:class:`~repro.errors.ServiceError` chained to the cause.  The streamed
session is bit-identical to the equivalent one-shot ``run_batched``
call for any micro-batch boundaries; see
:mod:`repro.service.session` and :mod:`repro.service.stream` for the
determinism contract and :mod:`repro.service.frontend` for the
session-isolation contract.
"""

from repro.service.frontend import MappingFrontend
from repro.service.session import MappingSession, ServiceStats
from repro.service.stream import (
    StreamingMappingService,
    stream_mapped,
    validate_service_knobs,
)

__all__ = [
    "MappingFrontend",
    "MappingSession",
    "ServiceStats",
    "StreamingMappingService",
    "stream_mapped",
    "validate_service_knobs",
]
