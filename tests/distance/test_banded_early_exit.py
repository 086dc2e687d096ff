"""The early-exit batched banded DP against two independent oracles.

:func:`banded_edit_distance_batch` drops a pair from its row loop once
the pair's band row minimum exceeds the band (checked every
``_COMPACT_EVERY`` rows).  These tests check it against the full DP
:func:`edit_distance` and the Landau-Vishkin diagonal oracle, and
force the cases the compaction has to get right: a band as wide as the
rows, rows shorter than one compaction stride, every pair dropped, a
pair dropped exactly at a compaction row, and a pair whose row minimum
equals the band there (it must stay).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import banded_edit_distance_batch, edit_distance
from repro.genome.edits import ErrorModel, inject_edits
from repro.genome.sequence import DnaSequence
from tests.distance.test_landau_vishkin import landau_vishkin

_module = importlib.import_module("repro.distance.edit_distance")
STRIDE = _module._COMPACT_EVERY


def _oracle(segments: np.ndarray, reads: np.ndarray, k: int) -> np.ndarray:
    """``min(ED, k + 1)`` per pair from the full DP, which the
    Landau-Vishkin oracle must agree with."""
    out = np.empty((reads.shape[0], segments.shape[0]), dtype=np.int32)
    for r, read in enumerate(reads):
        for s, segment in enumerate(segments):
            a, b = DnaSequence(segment), DnaSequence(read)
            want = min(edit_distance(a, b), k + 1)
            assert landau_vishkin(a, b, k) == want
            out[r, s] = want
    return out


def _related_block(rng: np.random.Generator, length: int, n_segments: int,
                   n_reads: int, rate: float) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """Segments, plus reads edited from them so distances straddle the
    band (unrelated random rows would all fall to the prefilters)."""
    segments = rng.integers(0, 4, (n_segments, length)).astype(np.uint8)
    model = ErrorModel(substitution=rate, insertion=rate / 2,
                       deletion=rate / 2, burst_prob=0.5)
    reads = []
    for _ in range(n_reads):
        source = DnaSequence(np.concatenate([
            segments[rng.integers(0, n_segments)],
            rng.integers(0, 4, length).astype(np.uint8)]))
        edited, _ = inject_edits(source, model, rng)
        tail = rng.integers(0, 4, length).astype(np.uint8)
        reads.append(np.concatenate([edited.codes, tail])[:length])
    return segments, np.stack(reads)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 40),
       band=st.integers(0, 12),
       rate=st.sampled_from([0.02, 0.08, 0.2, 0.4]))
def test_matches_full_dp_and_landau_vishkin(seed, length, band, rate):
    rng = np.random.default_rng(seed)
    segments, reads = _related_block(rng, length, 3, 3, rate)
    assert np.array_equal(banded_edit_distance_batch(segments, reads, band),
                          _oracle(segments, reads, band))


@pytest.mark.parametrize("length", [1, 3, STRIDE - 1, STRIDE, 2 * STRIDE])
def test_band_at_least_length(length, rng):
    """A band covering every offset: the early exit never sees an
    inside-the-matrix row without edge columns."""
    segments, reads = _related_block(rng, length, 4, 4, 0.3)
    for band in (length, length + 3):
        assert np.array_equal(
            banded_edit_distance_batch(segments, reads, band),
            _oracle(segments, reads, band))


@pytest.mark.parametrize("length", [1, 2, 5, STRIDE - 1])
def test_rows_shorter_than_one_stride(length, rng):
    segments, reads = _related_block(rng, length, 4, 4, 0.3)
    for band in range(length + 1):
        assert np.array_equal(
            banded_edit_distance_batch(segments, reads, band),
            _oracle(segments, reads, band))


def test_every_pair_dropped():
    """Pairs that pass both prefilters but whose DP leaves the band:
    permuted halves keep the composition and most 3-grams."""
    half = np.array([0, 1, 2, 3] * 8, dtype=np.uint8)
    rng = np.random.default_rng(4)
    rng.shuffle(half)
    segment = np.concatenate([half, half[::-1]])
    read = np.concatenate([half[::-1], half])
    segments, reads = segment[None, :], read[None, :]
    band = 6
    got = banded_edit_distance_batch(segments, reads, band)
    assert got.tolist() == [[band + 1]]
    assert np.array_equal(got, _oracle(segments, reads, band))


def _pair_with_prefix_mismatches(n_mismatches: int, length: int,
                                 rng: np.random.Generator):
    """A read equal to its segment except for substitutions on the
    first *n_mismatches* bases (at most one stride)."""
    segment = rng.integers(0, 4, length).astype(np.uint8)
    read = segment.copy()
    read[:n_mismatches] = (read[:n_mismatches] + 1) % 4
    return segment[None, :], read[None, :]


def test_pair_dropped_at_a_compaction_row(rng):
    """Eight leading substitutions against a band of 2: the row minimum
    at the first compaction row is above the band, so the pair leaves
    the loop there and keeps the cap."""
    segments, reads = _pair_with_prefix_mismatches(STRIDE, 64, rng)
    for band in (1, 2, 3):
        got = banded_edit_distance_batch(segments, reads, band)
        assert got.tolist() == [[band + 1]]
        assert np.array_equal(got, _oracle(segments, reads, band))


def test_row_minimum_equal_to_band_stays(rng):
    """Row minimum exactly ``k`` at a compaction row: the pair must stay
    live and finish at ``k``."""
    for band in (1, 2, 3):
        segments, reads = _pair_with_prefix_mismatches(band, 64, rng)
        got = banded_edit_distance_batch(segments, reads, band)
        assert got.tolist() == [[band]]
        assert np.array_equal(got, _oracle(segments, reads, band))


@pytest.mark.slow
@pytest.mark.parametrize("condition", ["A", "B"])
def test_fig7_scale_soak(condition):
    """256 x 256 references, 96 reads, 8 seeds: the ground-truth band
    of each condition against the full DP on every pair the result
    marks in band, and Landau-Vishkin on every pair it caps."""
    from repro.experiments.fig7 import thresholds_for
    from repro.genome.datasets import build_dataset

    band = max(thresholds_for(condition)) + 2
    for seed in range(8):
        dataset = build_dataset(condition, n_reads=96, n_segments=256,
                                seed=seed)
        reads = np.stack([record.read.codes for record in dataset.reads])
        got = banded_edit_distance_batch(dataset.segments, reads, band)
        for r, s in zip(*np.nonzero(got <= band)):
            assert got[r, s] == edit_distance(
                DnaSequence(dataset.segments[s]), DnaSequence(reads[r]))
        # Capped pairs: the diagonal oracle proves a sample of them
        # above the band.
        capped = np.argwhere(got > band)
        sample = capped[np.random.default_rng(seed).permutation(
            capped.shape[0])[:200]]
        for r, s in sample:
            assert landau_vishkin(DnaSequence(dataset.segments[s]),
                                  DnaSequence(reads[r]), band) == band + 1
