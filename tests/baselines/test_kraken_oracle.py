"""The packed k-mer index against a brute-force set oracle.

The oracle maps every k-mer window of the reference, as a byte string,
to the Python set of segments holding it, and counts a read window
(all codes 0-3) as one hit in each segment of its set.  The packed
index must give the same hit fractions, bit for bit, across the k
values where the packing changes shape (one word, word plus chunks, a 16-base chunk
boundary, k equal to the row length), with repeated k-mers inside one
segment, reads equal to segments, non-ACGT read codes and zero
segments.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kraken import CONFIDENCE, KrakenLikeClassifier
from repro.errors import DatasetError

K_VALUES = (1, 31, 32, 33, 35, 48)


def oracle_fractions(segments: np.ndarray, reads: np.ndarray,
                     k: int) -> np.ndarray:
    holders: dict[bytes, set[int]] = {}
    for s, segment in enumerate(segments):
        for p in range(len(segment) - k + 1):
            holders.setdefault(segment[p : p + k].tobytes(), set()).add(s)
    n_kmers = reads.shape[1] - k + 1
    hits = np.zeros((reads.shape[0], segments.shape[0]), dtype=np.int64)
    for r, read in enumerate(reads):
        for p in range(n_kmers):
            window = read[p : p + k]
            if (window < 4).all():
                for s in holders.get(window.tobytes(), ()):
                    hits[r, s] += 1
    return hits / n_kmers


def _block(rng: np.random.Generator, n_segments: int, length: int,
           n_reads: int, n_codes: int, period: int) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """Low-entropy segments (repeated k-mers inside one segment when
    *period* or *n_codes* is small) and reads drawn from copies of them,
    point-mutated, with a few non-ACGT codes."""
    motifs = rng.integers(0, n_codes, (max(n_segments, 1), period))
    segments = np.resize(motifs, (max(n_segments, 1), length))
    segments = segments.astype(np.uint8)[:n_segments]
    flips = rng.random(segments.shape) < 0.05
    segments[flips] = rng.integers(0, 4, int(flips.sum()))
    if n_segments:
        reads = segments[rng.integers(0, n_segments, n_reads)].copy()
    else:
        reads = rng.integers(0, 4, (n_reads, length)).astype(np.uint8)
    edits = rng.random(reads.shape) < 0.03
    reads[edits] = rng.integers(0, 4, int(edits.sum()))
    odd = rng.random(reads.shape) < 0.01
    reads[odd] = rng.choice(np.array([4, 9, 255], dtype=np.uint8),
                            int(odd.sum()))
    return segments, reads


def _check(segments: np.ndarray, reads: np.ndarray, k: int) -> None:
    classifier = KrakenLikeClassifier(segments, k=k)
    got = classifier.classify_batch(reads)
    want = oracle_fractions(segments, reads, k)
    assert got.hit_fractions.shape == want.shape
    assert np.array_equal(got.hit_fractions, want)
    assert np.array_equal(got.decisions, want >= CONFIDENCE)
    assert got.n_kmers == reads.shape[1] - k + 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from(K_VALUES),
       extra=st.integers(0, 40), n_segments=st.integers(0, 5),
       n_codes=st.integers(1, 4), period=st.integers(1, 40))
def test_matches_set_oracle(seed, k, extra, n_segments, n_codes, period):
    rng = np.random.default_rng(seed)
    segments, reads = _block(rng, n_segments, k + extra, 4, n_codes, period)
    _check(segments, reads, k)


@pytest.mark.parametrize("k", K_VALUES + (64,))
def test_k_equal_to_row_length(k, rng):
    segments, reads = _block(rng, 3, k, 5, 4, 7)
    _check(segments, reads, k)


@pytest.mark.parametrize("k", K_VALUES)
def test_reads_equal_to_segments_hit_every_window(k, rng):
    segments, _ = _block(rng, 4, 80, 1, 4, 80)
    classifier = KrakenLikeClassifier(segments, k=k)
    got = classifier.classify_batch(segments)
    assert (np.diag(got.hit_fractions) == 1.0).all()
    assert np.array_equal(got.hit_fractions,
                          oracle_fractions(segments, segments, k))


@pytest.mark.parametrize("k", [1, 35])
def test_repeated_kmers_count_one_segment_once(k):
    """A k-mer repeated along a segment (a homopolymer run) is one CSR
    entry: every read window of the run is a hit in it, no more."""
    segments = np.zeros((2, 60), dtype=np.uint8)
    segments[1] = 3
    reads = np.zeros((1, 60), dtype=np.uint8)
    got = KrakenLikeClassifier(segments, k=k).classify_batch(reads)
    assert got.hit_fractions.tolist() == [[1.0, 0.0]]


def test_zero_segments(rng):
    segments = np.zeros((0, 64), dtype=np.uint8)
    reads = rng.integers(0, 4, (3, 64)).astype(np.uint8)
    got = KrakenLikeClassifier(segments, k=35).classify_batch(reads)
    assert got.hit_fractions.shape == (3, 0)
    assert got.decisions.shape == (3, 0)


class TestInputContract:
    def test_k_must_be_positive(self):
        with pytest.raises(DatasetError, match="k must be positive"):
            KrakenLikeClassifier(np.zeros((2, 8), dtype=np.uint8), k=0)

    @pytest.mark.parametrize("code", [4, 9, 255])
    def test_segment_code_above_three_is_named(self, code, rng):
        segments = rng.integers(0, 4, (3, 64)).astype(np.uint8)
        segments[1, 17] = code
        with pytest.raises(DatasetError, match=f"code {code}"):
            KrakenLikeClassifier(segments, k=35)

    @pytest.mark.parametrize("k", [1, 35])
    def test_read_windows_with_a_non_acgt_code_miss(self, k, rng):
        segments = rng.integers(0, 4, (2, 64)).astype(np.uint8)
        read = segments[:1].copy()
        read[0, 40] = 4
        got = KrakenLikeClassifier(segments, k=k).classify_batch(read)
        n_kmers = 64 - k + 1
        # Exactly the windows covering position 40 miss.
        covering = min(40, n_kmers - 1) - max(0, 40 - k + 1) + 1
        assert got.hit_fractions[0, 0] == (n_kmers - covering) / n_kmers


@pytest.mark.slow
@pytest.mark.parametrize("condition", ["A", "B"])
def test_fig7_scale_soak(condition):
    """256 x 256 references, 96 reads, 8 seeds at Kraken2's k = 35."""
    from repro.genome.datasets import build_dataset

    for seed in range(8):
        dataset = build_dataset(condition, n_reads=96, n_segments=256,
                                seed=seed)
        reads = np.stack([record.read.codes for record in dataset.reads])
        got = KrakenLikeClassifier(dataset.segments).classify_batch(reads)
        assert np.array_equal(got.hit_fractions,
                              oracle_fractions(dataset.segments, reads, 35))
