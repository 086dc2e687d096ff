"""Golden digests of the keyed decision function.

Every execution path is a view of one function keyed by
``(seed, query_key, pass)``, so for fixed seeds its decisions, per-read
costs and ledger counters are constants.  These tests pin exact SHA-256
digests of those outputs on each path the library exposes:

* ``ReadMappingPipeline.run_batched`` (HDAC on in condition A, TASR on
  in condition B above ``Tl``);
* ``AsmCapMatcher.match_sweep`` over each condition's Fig. 7 sweep;
* ``EdamMatcher.match_sweep`` with and without Sequence Rotation;
* ``ShardedReadMappingPipeline.run`` on the thread and process engines;
* ``measure_strategy_profile``.

A refactor of the search, matcher or HDAC layers must leave every
digest unchanged; a digest that moves means a decision, a cost or a
ledger event moved.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import ReadMappingPipeline, ShardedReadMappingPipeline
from repro.cost.profile import measure_strategy_profile
from repro.cost.views import search_stats
from repro.genome.datasets import build_dataset

N_READS, READ_LENGTH, N_SEGMENTS = 24, 128, 32


def _digest(*parts) -> str:
    """SHA-256 over arrays (dtype + shape + bytes) and reprs of the rest."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(f"{part.dtype.str}{part.shape}".encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            sha.update(part.hex().encode())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()[:16]


def _stats_parts(stats) -> tuple:
    return (stats.n_searches, stats.n_rotation_cycles,
            float(stats.total_energy_joules), float(stats.total_latency_ns))


def _report_parts(report) -> tuple:
    mappings = report.mappings
    return (
        [(m.read_index, m.matched_rows, m.outcome.threshold,
          m.outcome.hdac_probability) for m in mappings],
        np.asarray([m.outcome.energy_joules for m in mappings]),
        np.asarray([m.outcome.latency_ns for m in mappings]),
        np.asarray([m.outcome.n_searches for m in mappings]),
    )


def _dataset(condition: str):
    return build_dataset(condition, n_reads=N_READS, read_length=READ_LENGTH,
                         n_segments=N_SEGMENTS, seed=11)


def _matcher(dataset, seed: int) -> AsmCapMatcher:
    array = CamArray(rows=N_SEGMENTS, cols=READ_LENGTH, seed=seed)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, seed=seed + 1)


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


RUN_BATCHED = {
    ("A", 4): "70ad8f7f34446b09",
    ("A", 8): "47fc8e960011c8fb",
    ("B", 8): "cc6157d731311acc",
}


@pytest.mark.parametrize("condition, threshold", sorted(RUN_BATCHED))
def test_run_batched_digest(condition, threshold):
    dataset = _dataset(condition)
    matcher = _matcher(dataset, seed=3)
    report = ReadMappingPipeline(matcher).run_batched(
        dataset.reads, threshold, first_read_index=5)
    ledger = matcher.array.ledger
    assert _digest(*_report_parts(report),
                   sorted(ledger.pass_counts().items()),
                   *_stats_parts(search_stats(ledger))) \
        == RUN_BATCHED[(condition, threshold)]


MATCH_SWEEP = {
    "A": (list(range(1, 9)), "43dd3c145e91e02f"),
    "B": (list(range(2, 17, 2)), "4f09ed12a9e9312a"),
}


@pytest.mark.parametrize("condition", sorted(MATCH_SWEEP))
def test_match_sweep_digest(condition):
    thresholds, expected = MATCH_SWEEP[condition]
    dataset = _dataset(condition)
    matcher = _matcher(dataset, seed=4)
    outcome = matcher.match_sweep(_reads(dataset), thresholds,
                                  query_keys=range(100, 100 + N_READS))
    ledger = matcher.array.ledger
    assert _digest(outcome.decisions, outcome.n_searches,
                   outcome.energy_joules, outcome.latency_ns,
                   outcome.hdac_probabilities, outcome.hdac_mask,
                   outcome.tasr_mask, outcome.tasr_lower_bound,
                   sorted(ledger.pass_counts().items()),
                   *_stats_parts(search_stats(ledger))) == expected


EDAM_SWEEP = {False: "fd092894c912db51", True: "bc9eb2c73a0a03e5"}


@pytest.mark.parametrize("enable_sr", sorted(EDAM_SWEEP))
def test_edam_match_sweep_digest(enable_sr):
    dataset = _dataset("B")
    matcher = EdamMatcher(rows=N_SEGMENTS, cols=READ_LENGTH,
                          enable_sr=enable_sr, seed=9)
    matcher.store(dataset.segments)
    decisions = matcher.match_sweep(_reads(dataset), list(range(2, 17, 2)))
    ledger = matcher.array.ledger
    assert _digest(decisions, sorted(ledger.pass_counts().items()),
                   *_stats_parts(search_stats(ledger))) \
        == EDAM_SWEEP[enable_sr]


SHARDED = {"process": "8b20f61c50c8690c", "thread": "926709a55d436b13"}


@pytest.mark.parametrize("engine", sorted(SHARDED))
def test_sharded_run_digest(engine):
    dataset = _dataset("A")
    with ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=3, seed=6,
            chunk_size=10, engine=engine, max_workers=2) as pipeline:
        report = pipeline.run(dataset.reads, 6, first_read_index=40)
        pass_counts = pipeline.ledger_observability()[0]
        stats = pipeline.merged_stats()
    assert _digest(*_report_parts(report), sorted(pass_counts.items()),
                   *_stats_parts(stats)) == SHARDED[engine]


def test_strategy_profile_digest():
    profiles = [measure_strategy_profile(c, seed=2) for c in ("A", "B")]
    assert _digest(*[
        (p.searches_per_read, p.rotation_cycles_per_read, p.thresholds,
         p.per_threshold_searches, p.per_threshold_rotation_cycles)
        for p in profiles
    ]) == "ec4c1fd15879ee59"
