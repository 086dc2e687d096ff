"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one paper artifact (table or figure)
under pytest-benchmark; run with::

    pytest benchmarks/ --benchmark-only

Slow Monte-Carlo benches use ``benchmark.pedantic`` with a single round
so the harness prints the artifact once per invocation instead of
re-simulating it dozens of times.

The standalone ``python benchmarks/bench_*.py`` entry points that CI
archives (``bench_fig8_system.py``, ``bench_refstore_warmstart.py``)
share the machine-readable output contract defined here: each takes
``--json PATH`` (:func:`add_json_argument`) and dumps one
``{"bench", "config", "timings", "derived"}`` document via
:func:`write_bench_json`, so CI can archive results without scraping
tables from stdout.  Simulator throughput is measured by
``perfbench/run.py``, not here.
"""

from __future__ import annotations

import json

import pytest

from repro.genome.datasets import build_dataset


def add_json_argument(parser) -> None:
    """Install the shared ``--json PATH`` benchmark option."""
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable {bench, config, timings, "
             "derived} summary to PATH",
    )


def write_bench_json(path: "str | None", *, bench: str, config: dict,
                     timings: dict, derived: dict) -> None:
    """Dump one benchmark run as JSON (no-op when *path* is None).

    ``bench`` names the script, ``config`` echoes the resolved knobs,
    ``timings`` holds raw seconds, and ``derived`` holds computed
    figures of merit (speedups, pass/fail gates, identity checks).
    """
    if path is None:
        return
    document = {
        "bench": bench,
        "config": config,
        "timings": timings,
        "derived": derived,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def bench_dataset_a():
    """The Condition-A workload used by the accuracy benches."""
    return build_dataset("A", n_reads=48, read_length=256, n_segments=64,
                         seed=1)


@pytest.fixture(scope="session")
def bench_dataset_b():
    """The Condition-B workload used by the accuracy benches."""
    return build_dataset("B", n_reads=48, read_length=256, n_segments=64,
                         seed=2)
