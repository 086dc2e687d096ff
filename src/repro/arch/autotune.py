"""Shard/chunk autotuning: pick execution parameters from the workload.

PR 1's sharded pipeline took ``n_shards`` and ``chunk_size`` as
constants, which silently mis-sizes both extremes: a 64-row reference
split across 16 shards wastes every worker on 4-row arrays, while a
million-row reference on 4 shards leaves cores idle.  This module
derives the parameters from the only two things that matter — the
reference size and the machine — with the same memory-bounding logic
the array's batched GEMM path uses.

Heuristics (all clamped, all deterministic given their inputs):

* **shards** — one worker core per shard, but never shards smaller
  than :data:`MIN_ROWS_PER_SHARD` rows (a shard must amortise its
  per-pass Python overhead over enough matchline rows) and never more
  shards than rows.
* **chunk size** — bound the peak boolean/one-hot working set of one
  worker's vectorised pass to :data:`repro.constants.CHUNK_ELEMS`
  elements, mirroring ``repro.cam.array``'s internal chunking, and keep
  chunks large enough (:data:`MIN_CHUNK_READS`) that per-chunk dispatch
  cost stays negligible.
* **workers** — one thread per shard, capped at the CPU count (numpy
  releases the GIL inside the comparison kernels, so threads scale
  until cores run out).

The Monte-Carlo sweep runner reuses the same machine signal through
:func:`sweep_worker_count` (independent repetitions, so the only cap
is cores vs runs), and the streaming service sizes its micro-batches
through :func:`plan_microbatch` (the same working-set bound, applied
to the coalescing buffer a long-running feed accumulates between
dispatches).

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

The reference catalog's byte budget is sized from reference shapes
through :func:`estimate_stored_reference_bytes`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.constants import CHUNK_ELEMS
from repro.errors import ArchConfigError

#: A shard below this many rows spends more time in per-pass Python
#: dispatch than in the vectorised compare kernels.
MIN_ROWS_PER_SHARD = 32

#: Lower bound on reads per chunk — below this the chunk bookkeeping
#: dominates.
MIN_CHUNK_READS = 64

#: Upper bound on reads per chunk — above this the merged per-pass
#: blocks stop fitting in outer caches regardless of element budget.
MAX_CHUNK_READS = 8192


@dataclass(frozen=True)
class ShardPlan:
    """Autotuned execution parameters for a sharded pipeline run.

    Attributes
    ----------
    n_shards:
        CAM-array shards to partition the reference across.
    chunk_size:
        Reads per worker task.
    max_workers:
        Worker threads for the shard fan-out.
    """

    n_shards: int
    chunk_size: int
    max_workers: int


def available_cpus(cpu_count: "int | None" = None) -> int:
    """The core budget used by every heuristic (>= 1)."""
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    return max(1, int(cpu_count))


def plan_shards(n_rows: int, cols: int,
                cpu_count: "int | None" = None) -> ShardPlan:
    """Pick ``(n_shards, chunk_size, max_workers)`` for a reference.

    Parameters
    ----------
    n_rows:
        Reference segment rows to be partitioned across shards.
    cols:
        Segment width in bases (drives the per-read memory bound).
    cpu_count:
        Core budget; defaults to ``os.cpu_count()``.  Explicit values
        make plans reproducible across machines (tests pin this).
    """
    if n_rows <= 0:
        raise ArchConfigError(f"n_rows must be positive, got {n_rows}")
    if cols <= 0:
        raise ArchConfigError(f"cols must be positive, got {cols}")
    cpus = available_cpus(cpu_count)
    by_size = max(1, n_rows // MIN_ROWS_PER_SHARD)
    n_shards = max(1, min(cpus, by_size, n_rows))

    rows_per_shard = -(-n_rows // n_shards)  # ceil
    return ShardPlan(n_shards=n_shards,
                     chunk_size=_chunk_reads(rows_per_shard, cols),
                     max_workers=min(n_shards, cpus))


def _chunk_reads(rows_per_shard: int, cols: int) -> int:
    """Reads per dispatch bounding one vectorised pass's working set.

    One block materialises roughly a ``(chunk, rows_per_shard)`` count
    matrix plus a ``(chunk, cols * 4)`` one-hot encoding per pass;
    bound the larger of the two to :data:`~repro.constants.CHUNK_ELEMS`,
    clamped to ``[MIN_CHUNK_READS, MAX_CHUNK_READS]``.  Shared by the worker
    chunking (:func:`plan_shards`) and the streaming micro-batches
    (:func:`plan_microbatch`) so the two sizings cannot drift.
    """
    per_read_elems = max(rows_per_shard, cols * 4, 1)
    chunk = CHUNK_ELEMS // per_read_elems
    return int(min(MAX_CHUNK_READS, max(MIN_CHUNK_READS, chunk)))


def plan_microbatch(n_rows: int, cols: int) -> int:
    """Reads per streaming micro-batch for a reference of this size.

    The streaming service coalesces incrementally-submitted reads and
    dispatches them through the batched engine once a micro-batch is
    full.  The size balances the same two forces the worker-chunk
    heuristic does: batches big enough to amortise per-dispatch Python
    overhead over the vectorised passes (:data:`MIN_CHUNK_READS`),
    small enough that one dispatch's comparison working set stays
    inside the array's ~8 MB target
    (:data:`~repro.constants.CHUNK_ELEMS`).

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
    return _chunk_reads(n_rows, cols)


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


# -- stored-reference sizing ------------------------------------------------

#: Encoded-reference bytes per stored cell: exactly 1 (uint8 segments)
#: + 16 (float32 one-hot), the payload a reference store file carries.
ENCODED_BYTES_PER_CELL = 17


def estimate_stored_reference_bytes(n_rows: int, cols: int) -> int:
    """Approximate encoded-payload bytes of one stored reference.

    :data:`ENCODED_BYTES_PER_CELL` over the reference geometry, so a
    :class:`~repro.refstore.ReferenceCatalog` byte budget can be sized
    from reference shapes before any file exists.  Exact for the
    payload; a store file adds a fixed header and per-array alignment
    padding on top.
    """
    if n_rows <= 0:
        raise ArchConfigError(f"n_rows must be positive, got {n_rows}")
    if cols <= 0:
        raise ArchConfigError(f"cols must be positive, got {cols}")
    return int(n_rows) * int(cols) * ENCODED_BYTES_PER_CELL


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
