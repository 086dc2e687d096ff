"""Bench: the simulated CAM array search operation itself.

Measures the behavioural simulator's throughput for the paper's
256 x 256 array in both domains and both match modes, plus the full
strategy-enabled matcher — the inner loop of every accuracy experiment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.genome.edits import ErrorModel


@pytest.fixture(scope="module")
def loaded_arrays(bench_rng):
    segments = bench_rng.integers(0, 4, (256, 256)).astype(np.uint8)
    charge = CamArray(rows=256, cols=256, domain="charge", seed=0)
    charge.store(segments)
    current = CamArray(rows=256, cols=256, domain="current", seed=0)
    current.store(segments)
    read = bench_rng.integers(0, 4, 256).astype(np.uint8)
    return charge, current, read


def bench_charge_search_ed_star(benchmark, loaded_arrays):
    charge, _, read = loaded_arrays
    result = benchmark(charge.search_batch, read[None, :], 8, MatchMode.ED_STAR)
    assert result.matches.shape == (1, 256)


def bench_charge_search_hamming(benchmark, loaded_arrays):
    charge, _, read = loaded_arrays
    result = benchmark(charge.search_batch, read[None, :], 8, MatchMode.HAMMING)
    assert result.matches.shape == (1, 256)


def bench_current_search(benchmark, loaded_arrays):
    _, current, read = loaded_arrays
    result = benchmark(current.search_batch, read[None, :], 8, MatchMode.ED_STAR)
    assert result.matches.shape == (1, 256)


def bench_full_matcher_condition_a(benchmark, loaded_arrays):
    charge, _, read = loaded_arrays
    matcher = AsmCapMatcher(charge, ErrorModel.condition_a(),
                            MatcherConfig(), seed=0)
    outcome = benchmark(matcher.match, read, 2)
    assert outcome.n_searches == 2  # ED* + HDAC's Hamming pass


def bench_full_matcher_condition_b_rotating(benchmark, loaded_arrays):
    charge, _, read = loaded_arrays
    matcher = AsmCapMatcher(charge, ErrorModel.condition_b(),
                            MatcherConfig(), seed=0)
    outcome = benchmark(matcher.match, read, 8)  # above Tl = 6
    assert outcome.n_searches == 5  # ED* + 2 * NR rotated passes
