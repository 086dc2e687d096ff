"""Execution-parameter autotuning: sizing picked from the workload.

Every heuristic here is clamped and deterministic given its inputs
(the reference size).

The streaming service sizes its micro-batches through
:func:`plan_microbatch`: the coalescing buffer a long-running feed
accumulates between dispatches is bounded to the same ~8 MB working
set (:data:`repro.constants.CHUNK_ELEMS`) the array's batched GEMM
path chunks to, and kept large enough (:data:`MIN_CHUNK_READS`) that
per-dispatch cost stays negligible.

There is no thread count to plan: ``src/repro`` starts no thread
(contractlint ``CL107``).  The services run every micro-batch on the
thread that feeds it, the Monte-Carlo sweep runs its repetitions in
order on the calling thread, and the count kernel's BLAS owns the
cores.

There is one count kernel (:mod:`repro.kernels`), so there is no
kernel to choose.  :func:`plan_backend`,
:func:`calibrate_kernel_backends` and :func:`sweep_worker_count` stay
only because the benchmark's setups time the calibration (its
``arch.autotune`` span) and record the plan; they go with ROADMAP
item 1's perfbench PR.
"""

from __future__ import annotations

import threading
import time

from repro.constants import CHUNK_ELEMS
from repro.errors import ArchConfigError
from repro.knobs import check_integer

#: Lower bound on reads per micro-batch — below this the per-dispatch
#: bookkeeping dominates.
MIN_CHUNK_READS = 64

#: Upper bound on reads per micro-batch — above this the per-pass
#: blocks stop fitting in outer caches regardless of element budget.
MAX_CHUNK_READS = 8192


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


def sweep_worker_count(n_runs: int) -> int:
    """``1``: the Monte-Carlo sweep runs its repetitions on the calling
    thread.

    Kept only for the benchmark's config record, which goes with
    ROADMAP item 1's perfbench PR.  *n_runs* must still be a positive
    integer (:class:`~repro.errors.ArchConfigError` otherwise, never
    truncated).
    """
    n_runs = check_integer("n_runs", n_runs, ArchConfigError)
    if n_runs < 1:
        raise ArchConfigError(f"n_runs must be positive, got {n_runs}")
    return 1


# -- kernel calibration (kept for the benchmark harness) -------------------

#: Calibration workload: small enough that the one-time measurement is
#: a few milliseconds.
_CALIBRATION_ROWS = 64
_CALIBRATION_COLS = 128
_CALIBRATION_QUERIES = 16
_CALIBRATION_REPEATS = 3

#: Cached :func:`plan_backend` result (one calibration per process).
_PLANNED_BACKEND: "str | None" = None
#: Serialises the calibration, so concurrent first callers run it once.
_PLAN_LOCK = threading.Lock()


def calibrate_kernel_backends() -> float:
    """Best-of-:data:`_CALIBRATION_REPEATS` seconds of the count kernel.

    Times one dual (ED* + HD) counts pass plus one ED* pass on a
    deterministic synthetic workload.  The timing reaches no decision,
    ledger or report.
    """
    import numpy as np

    from repro import kernels

    rng = np.random.default_rng(0xA5)
    segments = rng.integers(
        0, 4, (_CALIBRATION_ROWS, _CALIBRATION_COLS)).astype(np.uint8)
    queries = rng.integers(
        0, 4, (_CALIBRATION_QUERIES, _CALIBRATION_COLS)).astype(np.uint8)
    encoded = kernels.encode_reference(segments)
    kernels.counts_batch_dual(encoded, queries)  # warm-up
    best = float("inf")
    for _ in range(_CALIBRATION_REPEATS):
        start = time.perf_counter()
        kernels.counts_batch_dual(encoded, queries)
        kernels.counts_batch(encoded, queries, ed_star=True)
        best = min(best, time.perf_counter() - start)
    return best


def plan_backend() -> str:
    """``"numpy-gemm"``, after one cached calibration per process."""
    global _PLANNED_BACKEND
    with _PLAN_LOCK:
        if _PLANNED_BACKEND is None:
            calibrate_kernel_backends()
            _PLANNED_BACKEND = "numpy-gemm"
        return _PLANNED_BACKEND
