"""Measurement helpers: tail percentiles, peak RSS and the run's
configuration record."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics

import numpy as np

#: A pNN is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: "list[float]", q: float) -> float:
    """The *q*-th percentile, refusing one with a thin tail.

    Raises ValueError unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the percentile (p90 needs 100 samples, p50 needs 20).
    """
    n = len(values)
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Process resident-set high-water mark in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def config_record(workload: str, choices: dict) -> dict:
    """The autotune decisions of one run plus the host it ran on."""
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **choices,
    }


def config_flags(record: dict) -> "list[str]":
    """Choices that differ between the setups of this run.

    ``plan_backend`` is re-planned at every setup; a flip (to the
    bitpacked kernel, say) would otherwise read as throughput noise.
    Differences between runs show in the printed records.
    """
    backends = sorted(set(record.get("plan_backend", ())))
    if len(backends) > 1:
        return [f"plan_backend differs between setups: {backends}"]
    return []
