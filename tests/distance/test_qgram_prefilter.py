"""Property tests for the q-gram (Ukkonen) lower-bound prefilters.

The prefilters may only ever *prove* pairs "greater than band" — they
must never change a labelled distance.  These tests fuzz the grid's
product bound and the pairwise bound against the true distance
(low-complexity and repeat rows included, where q-gram counts exceed
1), pin the matmul's exactness past float32's exact-integer range, check
which blocks take the composition pass instead, and cross-check the
prefiltered batch kernel against the unfiltered DP, i.e. exactness of
the ground-truth labelling is property-tested end to end.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import (
    _QGRAM_Q,
    _qgram_bound_from_l1,
    _qgram_product_bound,
    banded_edit_distance_batch,
    composition_lower_bound,
    edit_distance,
    qgram_profiles,
)
from repro.errors import SequenceError
from repro.eval.ground_truth import label_dataset
from repro.genome.datasets import build_dataset
from repro.genome.edits import ErrorModel, inject_edits
from repro.genome.sequence import DnaSequence

_module = importlib.import_module("repro.distance.edit_distance")

def qgram_lower_bound(segments: np.ndarray, reads: np.ndarray
                      ) -> np.ndarray:
    """The labeller's pairwise q-gram bound over the full ``(R, M)``
    pair grid."""
    l1 = np.abs(qgram_profiles(reads)[:, None, :].astype(np.int64)
                - qgram_profiles(segments)[None, :, :]).sum(axis=2)
    return _qgram_bound_from_l1(l1, _QGRAM_Q)


def product_bound(segments: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """The labeller's grid stage: the product bound of the profiles."""
    return _qgram_product_bound(qgram_profiles(reads),
                                qgram_profiles(segments), _QGRAM_Q)


def low_complexity_rows(rng: np.random.Generator, n_rows: int,
                        length: int) -> np.ndarray:
    """Rows tiled from a short motif (a homopolymer, a dinucleotide or
    a tandem repeat of up to six bases), some lightly mutated, so their
    q-gram counts run far above 1."""
    rows = np.empty((n_rows, length), dtype=np.uint8)
    for row in rows:
        row[:] = np.resize(rng.integers(0, 4, rng.integers(1, 7)), length)
        flip = rng.random(length) < rng.choice([0.0, 0.05, 0.2])
        row[flip] = rng.integers(0, 4, int(flip.sum()))
    return rows


def edited_copies(rng: np.random.Generator, rows: np.ndarray,
                  n_copies: int, rate: float) -> np.ndarray:
    """Copies of random *rows* with substitutions and indels, cut or
    padded back to the row length."""
    length = rows.shape[1]
    model = ErrorModel(substitution=rate, insertion=rate / 2,
                       deletion=rate / 2, burst_prob=0.5)
    copies = np.empty((n_copies, length), dtype=np.uint8)
    for copy in copies:
        source = DnaSequence(rows[rng.integers(0, rows.shape[0])])
        edited, _ = inject_edits(source, model, rng)
        tail = rng.integers(0, 4, length).astype(np.uint8)
        copy[:] = np.concatenate([edited.codes, tail])[:length]
    return copies


def repeat_block(seed: int, length: int,
                 rate: float) -> "tuple[np.ndarray, np.ndarray]":
    """Segments of low-complexity, random and repeated rows, plus reads
    edited from them, so distances straddle the band."""
    rng = np.random.default_rng(seed)
    random_rows = rng.integers(0, 4, (3, length)).astype(np.uint8)
    segments = np.concatenate([low_complexity_rows(rng, 3, length),
                               random_rows, random_rows[:1]])
    return segments, edited_copies(rng, segments, 5, rate)


def reference_dp(a: np.ndarray, b: np.ndarray) -> int:
    """Plain-Python edit distance over any codes (ACGT or not)."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j - 1] + (a[i - 1] != b[j - 1]),
                         prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


equal_length_pair = st.integers(_QGRAM_Q, 40).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ACGT", min_size=n, max_size=n),
        st.text(alphabet="ACGT", min_size=n, max_size=n),
    )
)


class TestQgramBound:
    @settings(max_examples=150, deadline=None)
    @given(equal_length_pair)
    def test_never_exceeds_true_distance(self, pair):
        a, b = DnaSequence(pair[0]), DnaSequence(pair[1])
        bound = qgram_lower_bound(a.codes[None, :], b.codes[None, :])
        assert bound[0, 0] <= edit_distance(b, a)

    @settings(max_examples=80, deadline=None)
    @given(equal_length_pair)
    def test_at_least_as_strong_cases_stay_valid_with_composition(
            self, pair):
        """max(composition, qgram) is still a valid lower bound."""
        a, b = DnaSequence(pair[0]), DnaSequence(pair[1])
        comp = composition_lower_bound(a.codes[None, :], b.codes[None, :])
        qgram = qgram_lower_bound(a.codes[None, :], b.codes[None, :])
        assert max(int(comp[0, 0]), int(qgram[0, 0])) <= edit_distance(b, a)

    def test_zero_on_identity(self, rng):
        rows = rng.integers(0, 4, (5, 30)).astype(np.uint8)
        assert (np.diag(qgram_lower_bound(rows, rows)) == 0).all()

    def test_profiles_count_every_window(self, rng):
        rows = rng.integers(0, 4, (3, 20)).astype(np.uint8)
        profiles = qgram_profiles(rows)
        assert profiles.shape == (3, 4 ** _QGRAM_Q)
        assert (profiles.sum(axis=1) == 20 - _QGRAM_Q + 1).all()

    def test_profiles_reject_short_rows(self, rng):
        with pytest.raises(SequenceError):
            qgram_profiles(rng.integers(0, 4, (2, 2)).astype(np.uint8))

class TestGridBound:
    """The product bound over the pair grid (the labeller's first
    stage for ACGT blocks) and the q = 5 pairwise bound behind it."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(_QGRAM_Q, 48),
           rate=st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    def test_bounds_never_exceed_true_distance(self, seed, length, rate):
        segments, reads = repeat_block(seed, length, rate)
        grid = product_bound(segments, reads)
        pairwise = qgram_lower_bound(segments, reads)
        for r, read in enumerate(reads):
            for s_, segment in enumerate(segments):
                true = edit_distance(DnaSequence(segment), DnaSequence(read))
                assert grid[r, s_] <= pairwise[r, s_] <= true

    def test_repeat_rows_have_counts_above_one(self, rng):
        """The strategy really exercises q-gram counts above 1, where
        ``min(a, b) <= a * b`` is strict."""
        profiles = qgram_profiles(low_complexity_rows(rng, 8, 40))
        assert profiles.max() > 1

    def test_float64_past_float32_exact_range(self):
        """At 4105 bases (4101 windows, 4101**2 >= 2**24) the all-A
        rows' dot product 16,818,201 rounds in float32; the bound must
        be the exact ``(W - W**2) / q`` (float32 gives one more)."""
        n_windows = 4101
        rows = np.zeros((1, n_windows + _QGRAM_Q - 1), dtype=np.uint8)
        square = n_windows * n_windows
        assert square >= 1 << 24 and int(np.float32(square)) != square
        want = (n_windows - square) // _QGRAM_Q
        assert (n_windows - square) % _QGRAM_Q == 0
        assert product_bound(rows, rows)[0, 0] == want

    def test_long_rows_stay_exact(self, rng):
        """Rows past float32's exact-integer range label exactly."""
        length = 4105
        segments = np.concatenate([
            np.zeros((1, length), dtype=np.uint8),
            rng.integers(0, 4, (1, length)).astype(np.uint8)])
        reads = segments.copy()
        reads[0, 100:103] = 1
        reads[1, rng.integers(0, length, 3)] = 0
        batch = banded_edit_distance_batch(segments, reads, 4)
        for r in range(2):
            for s_ in range(2):
                true = edit_distance(DnaSequence(reads[r]),
                                     DnaSequence(segments[s_]))
                assert batch[r, s_] == min(true, 5)


@pytest.fixture
def routes(monkeypatch):
    """The grid prefilters a kernel call takes, in call order."""
    taken = []

    def spy(name):
        real = getattr(_module, name)

        def wrapped(*args):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(_module, name, wrapped)

    spy("_qgram_product_bound")
    spy("composition_lower_bound")
    return taken


class TestPrefilterRouting:
    """ACGT blocks take the q-gram stages only; blocks the profiles
    cannot index are in ``test_non_acgt_codes_skip_qgram_but_stay_exact``."""

    def test_acgt_block_skips_composition(self, rng, routes):
        segments = rng.integers(0, 4, (4, 30)).astype(np.uint8)
        banded_edit_distance_batch(segments, segments.copy(), 3)
        assert routes == ["_qgram_product_bound"]


class TestPrefilteredBatchExactness:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(24, 96),
           rate=st.sampled_from([0.02, 0.08, 0.15]))
    def test_band_18_equals_unfiltered_dp(self, seed, length, rate):
        """At Fig. 7's band, the prefiltered kernel equals the same DP
        with every prefilter bound forced to 0 (every pair runs it)."""
        segments, reads = repeat_block(seed, length, rate)
        filtered = banded_edit_distance_batch(segments, reads, 18)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_module, "_qgram_product_bound",
                          lambda r, s, q: np.zeros((r.shape[0], s.shape[0]),
                                                   dtype=np.int32))
            patch.setattr(_module, "_qgram_bound_from_l1",
                          lambda l1, q: np.zeros(l1.shape, dtype=np.int32))
            unfiltered = banded_edit_distance_batch(segments, reads, 18)
        assert np.array_equal(filtered, unfiltered)


    @pytest.mark.parametrize("band", [0, 2, 6, 12])
    def test_matches_unfiltered_full_dp(self, rng, band):
        segments = rng.integers(0, 4, (12, 48)).astype(np.uint8)
        reads = segments[rng.integers(0, 12, 9)].copy()
        for row in reads:  # inject a few substitutions
            idx = rng.integers(0, 48, rng.integers(0, 8))
            row[idx] = rng.integers(0, 4, idx.size)
        batch = banded_edit_distance_batch(segments, reads, band)
        for r in range(reads.shape[0]):
            for s in range(segments.shape[0]):
                true = edit_distance(DnaSequence(reads[r]),
                                     DnaSequence(segments[s]))
                assert batch[r, s] == min(true, band + 1)

    @pytest.mark.parametrize("case", ["code-7", "shorter-than-q"])
    def test_non_acgt_codes_skip_qgram_but_stay_exact(self, rng, routes,
                                                      case):
        """Blocks the q-gram profiles can't index (a code outside ACGT,
        or rows shorter than q) take only the composition pass and
        stay exact."""
        length = 20 if case == "code-7" else _QGRAM_Q - 1
        segments = rng.integers(0, 4, (4, length)).astype(np.uint8)
        reads = segments.copy()
        reads[1, 2] = (reads[1, 2] + 1) % 4
        if case == "code-7":
            reads[0, 3] = 7  # out-of-alphabet code
        batch = banded_edit_distance_batch(segments, reads, 2)
        assert routes == ["composition_lower_bound"]
        for r in range(4):
            for s in range(4):
                true = reference_dp(reads[r], segments[s])
                assert batch[r, s] == min(true, 3)

    def test_labelling_matches_unfiltered(self):
        """End to end: prefiltered ground truth == brute-force truth."""
        dataset = build_dataset("B", n_reads=10, read_length=64,
                                n_segments=16, seed=3)
        truth = label_dataset(dataset, max_threshold=8)
        for r, record in enumerate(dataset.reads):
            for s in range(dataset.n_segments):
                true = edit_distance(
                    record.read,
                    DnaSequence(dataset.segments[s]),
                )
                assert truth.distances[r, s] == min(true, truth.band + 1)
