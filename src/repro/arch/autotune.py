"""Execution-parameter autotuning: sizing picked from the workload.

Every heuristic here is clamped and deterministic given its inputs
(the reference size and the machine's core count).

The streaming service sizes its micro-batches through
:func:`plan_microbatch`: the coalescing buffer a long-running feed
accumulates between dispatches is bounded to the same ~8 MB working
set (:data:`repro.constants.CHUNK_ELEMS`) the array's batched GEMM
path chunks to, and kept large enough (:data:`MIN_CHUNK_READS`) that
per-dispatch cost stays negligible.

The Monte-Carlo sweep runner reuses the same machine signal through
:func:`sweep_worker_count` (independent repetitions, so the only cap
is cores vs runs).

The multi-session frontend (:mod:`repro.service.frontend`) sizes its
persistent dispatch pool through :func:`plan_service_pool`: session
dispatches are independent of each other, so the pool takes one worker
per core, and the backlog bound scales with the worker count so
submitters block before the queue outruns the pool.

The kernel-backend registry (:mod:`repro.kernels`) resolves its
autotune tail here too: :func:`plan_backend` micro-calibrates every
registered backend once per process and caches the winner — the last
step of the selection order (explicit ``backend=`` knob >
``REPRO_KERNEL_BACKEND`` env var > calibration).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.constants import CHUNK_ELEMS
from repro.errors import ArchConfigError

#: Lower bound on reads per micro-batch — below this the per-dispatch
#: bookkeeping dominates.
MIN_CHUNK_READS = 64

#: Upper bound on reads per micro-batch — above this the per-pass
#: blocks stop fitting in outer caches regardless of element budget.
MAX_CHUNK_READS = 8192


def available_cpus(cpu_count: "int | None" = None) -> int:
    """The core budget used by every heuristic (>= 1)."""
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    return max(1, int(cpu_count))


def plan_microbatch(n_rows: int, cols: int) -> int:
    """Reads per streaming micro-batch for a reference of this size.

    The streaming service coalesces incrementally-submitted reads and
    dispatches them through the batched engine once a micro-batch is
    full.  The size balances two forces: batches big enough to
    amortise per-dispatch Python overhead over the vectorised passes
    (:data:`MIN_CHUNK_READS`), small enough that one dispatch's
    comparison working set stays inside the array's ~8 MB target
    (:data:`~repro.constants.CHUNK_ELEMS`).  One dispatch materialises
    roughly an ``(n, n_rows)`` count matrix plus an ``(n, cols * 4)``
    one-hot encoding per pass, so the larger of the two bounds ``n``,
    clamped to ``[MIN_CHUNK_READS, MAX_CHUNK_READS]``.

    Parameters
    ----------
    n_rows:
        Reference segment rows stored in the array.
    cols:
        Segment width in bases.
    """
    if n_rows <= 0:
        raise ArchConfigError(f"n_rows must be positive, got {n_rows}")
    if cols <= 0:
        raise ArchConfigError(f"cols must be positive, got {cols}")
    batch = CHUNK_ELEMS // max(n_rows, cols * 4)
    return int(min(MAX_CHUNK_READS, max(MIN_CHUNK_READS, batch)))


@dataclass(frozen=True)
class ServicePoolPlan:
    """Autotuned sizing for a multi-session service frontend.

    Attributes
    ----------
    n_workers:
        Persistent dispatch-worker threads (concurrent micro-batch
        dispatches across sessions).
    max_backlog:
        Queued micro-batches (across all sessions) before submits
        block — the frontend's backpressure bound.
    """

    n_workers: int
    max_backlog: int


#: Minimum frontend backlog: even a one-core host should absorb a
#: small burst before backpressure engages.
MIN_SERVICE_BACKLOG = 8


def plan_service_pool(n_workers: "int | None" = None,
                      cpu_count: "int | None" = None) -> ServicePoolPlan:
    """Size the frontend's dispatch pool for this machine.

    Parameters
    ----------
    n_workers:
        A pinned worker count; ``None`` takes one worker per core.
        The backlog bound scales with whichever count results.
    cpu_count:
        Core budget; defaults to ``os.cpu_count()``.  Explicit values
        make plans reproducible across machines (tests pin this).
    """
    if n_workers is None:
        n_workers = available_cpus(cpu_count)
    elif n_workers < 1:
        raise ArchConfigError(
            f"n_workers must be positive, got {n_workers}")
    return ServicePoolPlan(
        n_workers=int(n_workers),
        max_backlog=max(MIN_SERVICE_BACKLOG, 2 * int(n_workers)),
    )


def sweep_worker_count(n_runs: int,
                       cpu_count: "int | None" = None) -> int:
    """Worker threads for a Monte-Carlo sweep of independent runs.

    Each repetition owns its dataset, arrays and noise streams, so runs
    parallelise freely; the only cap is cores (and it never pays to
    spawn more workers than runs).
    """
    if n_runs < 1:
        raise ArchConfigError(f"n_runs must be positive, got {n_runs}")
    return max(1, min(int(n_runs), available_cpus(cpu_count)))


# -- kernel-backend calibration ---------------------------------------------

#: Calibration workload: small enough that the one-time measurement is
#: a few milliseconds, large enough that the backends' per-call fixed
#: costs do not dominate the comparison.
_CALIBRATION_ROWS = 64
_CALIBRATION_COLS = 128
_CALIBRATION_QUERIES = 16
_CALIBRATION_REPEATS = 3

#: Cached :func:`plan_backend` result (one calibration per process).
_PLANNED_BACKEND: "str | None" = None
#: Serialises the calibration, so concurrent first callers run it once
#: and all see the same cached backend.
_PLAN_LOCK = threading.Lock()


def calibrate_kernel_backends(
        rows: int = _CALIBRATION_ROWS,
        cols: int = _CALIBRATION_COLS,
        n_queries: int = _CALIBRATION_QUERIES,
        repeats: int = _CALIBRATION_REPEATS) -> "dict[str, float]":
    """Best-of-*repeats* seconds per registered kernel backend.

    Times one dual (ED* + HD) counts pass plus one ED* pass on a
    deterministic synthetic workload — the mix every execution path
    actually issues.  Timings decide only *which* backend runs; the
    counts themselves are bit-identical across backends, so this
    nondeterminism never reaches a decision, ledger or report.
    """
    import numpy as np

    from repro import kernels

    rng = np.random.default_rng(0xA5)
    segments = rng.integers(0, 4, (rows, cols)).astype(np.uint8)
    queries = rng.integers(0, 4, (n_queries, cols)).astype(np.uint8)
    encoded = kernels.encode_reference(segments)
    timings: "dict[str, float]" = {}
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        backend.counts_batch_dual(encoded, queries)  # warm-up / JIT
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            backend.counts_batch_dual(encoded, queries)
            backend.counts_batch(encoded, queries, ed_star=True)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    return timings


def plan_backend() -> str:
    """The fastest kernel backend on this machine (cached).

    The autotune tail of the selection order (explicit ``backend=``
    knob > ``REPRO_KERNEL_BACKEND`` env var > this): a one-time
    micro-calibration over every registered backend, cached for the
    process lifetime.  Ties and timer noise are harmless — any
    registered backend produces bit-identical results.
    """
    global _PLANNED_BACKEND
    with _PLAN_LOCK:
        if _PLANNED_BACKEND is None:
            timings = calibrate_kernel_backends()
            _PLANNED_BACKEND = min(timings, key=timings.get)
        return _PLANNED_BACKEND
