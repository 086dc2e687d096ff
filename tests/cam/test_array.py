"""Tests for the assembled CAM array (both domains)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.cost.events import ReferenceLoad
from repro.distance.ed_star import ed_star_batch
from repro.distance.hamming import hamming_distance_batch
from repro.errors import CamConfigError, ThresholdError
from repro.kernels import EncodedReference, encode_reference
from repro.kernels.base import _fallback_counts


def search_one(array, read, threshold, mode=MatchMode.ED_STAR, **kwargs):
    """One read as a one-row block: ``(matches, counts, v_ml)`` of row 0."""
    result = array.search_batch(np.asarray(read)[None, :], threshold, mode,
                                **kwargs)
    return result.matches[0], result.mismatch_counts[0], result.v_ml[0]


def counts_one(array, read, mode):
    """Digital counts of one read, as a one-row block."""
    return array.mismatch_counts_batch(np.asarray(read)[None, :], mode)[0]


@pytest.fixture
def stored_segments(rng):
    return rng.integers(0, 4, (16, 32)).astype(np.uint8)


@pytest.fixture
def charge_array(stored_segments):
    array = CamArray(rows=16, cols=32, domain="charge", noisy=False, seed=0)
    array.store(stored_segments)
    return array


@pytest.fixture
def current_array(stored_segments):
    array = CamArray(rows=16, cols=32, domain="current", noisy=False, seed=0)
    array.store(stored_segments)
    return array


class TestConfiguration:
    def test_invalid_domain(self):
        with pytest.raises(CamConfigError):
            CamArray(domain="optical")

    def test_search_times_match_table1(self):
        assert CamArray(rows=4, cols=4, domain="charge").search_time_ns == 0.9
        assert CamArray(rows=4, cols=4, domain="current").search_time_ns == 2.4

    def test_empty_array_search_rejected(self, rng):
        array = CamArray(rows=4, cols=8, domain="charge")
        with pytest.raises(CamConfigError):
            search_one(array, rng.integers(0, 4, 8).astype(np.uint8), 2)


class TestDigitalCounts:
    def test_ed_star_counts_match_kernel(self, charge_array,
                                         stored_segments, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        counts = counts_one(charge_array, read, MatchMode.ED_STAR)
        assert np.array_equal(counts, ed_star_batch(stored_segments, read))

    def test_hamming_counts_match_kernel(self, charge_array,
                                         stored_segments, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        counts = counts_one(charge_array, read, MatchMode.HAMMING)
        assert np.array_equal(counts,
                              hamming_distance_batch(stored_segments, read))

    def test_stored_read_matches_itself(self, charge_array, stored_segments):
        matches, counts, _ = search_one(charge_array, stored_segments[3], 0)
        assert matches[3]
        assert counts[3] == 0


class TestNoiselessSearch:
    def test_decisions_equal_digital_threshold(self, charge_array,
                                               stored_segments, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        for threshold in (0, 2, 8, 31):
            matches, counts, _ = search_one(charge_array, read, threshold)
            assert np.array_equal(matches, counts <= threshold)

    def test_current_domain_same_digital_behaviour(self, current_array,
                                                   charge_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        charge, _, _ = search_one(charge_array, read, 4)
        current, _, _ = search_one(current_array, read, 4)
        assert np.array_equal(charge, current)

    def test_voltage_polarity(self, charge_array, current_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        v_charge = search_one(charge_array, read, 4)[2]
        v_current = search_one(current_array, read, 4)[2]
        # Complementary transfer functions (same digital counts).
        assert np.allclose(v_charge + v_current, 1.2)

    def test_threshold_out_of_range(self, charge_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        with pytest.raises(ThresholdError):
            search_one(charge_array, read, 33)

    def test_wrong_read_width(self, charge_array):
        with pytest.raises(CamConfigError):
            search_one(charge_array, np.zeros(31, dtype=np.uint8), 2)


class TestNoisySearch:
    def test_noise_moves_voltages(self, stored_segments, rng):
        noisy = CamArray(rows=16, cols=32, domain="charge", noisy=True,
                         seed=1)
        noisy.store(stored_segments)
        clean = CamArray(rows=16, cols=32, domain="charge", noisy=False,
                         seed=1)
        clean.store(stored_segments)
        read = rng.integers(0, 4, 32).astype(np.uint8)
        v_noisy = search_one(noisy, read, 4)[2]
        v_clean = search_one(clean, read, 4)[2]
        assert not np.allclose(v_noisy, v_clean)

    def test_charge_domain_noise_rarely_flips(self, stored_segments):
        """566 >> 32 levels: the charge domain decides reliably."""
        rng = np.random.default_rng(5)
        array = CamArray(rows=16, cols=32, domain="charge", noisy=True,
                         seed=2)
        array.store(stored_segments)
        reads = rng.integers(0, 4, (50, 32)).astype(np.uint8)
        result = array.search_batch(reads, 4)
        assert np.array_equal(result.matches, result.mismatch_counts <= 4)

    def test_current_domain_noise_flips_boundary(self, rng):
        """EDAM's noise floor must flip decisions at the boundary."""
        cols = 256
        segments = rng.integers(0, 4, (1, cols)).astype(np.uint8)
        array = CamArray(rows=1, cols=cols, domain="current", noisy=True,
                         seed=3)
        array.store(segments)
        # Substitute a few bases, then set the threshold exactly at the
        # resulting digital ED* so the row sits on the decision boundary.
        read = segments[0].copy()
        for i in (50, 100, 150, 200):
            read[i] = (read[i] + 2) % 4
        from repro.cam.cell import MatchMode
        boundary = int(counts_one(array, read, MatchMode.ED_STAR)[0])
        assert boundary >= 1
        # One trial per noise key: 400 keyed copies of the same read.
        trials = 400
        result = array.search_batch(np.tile(read, (trials, 1)), boundary)
        flips = int((~result.matches[:, 0]).sum())
        assert 0 < flips < trials  # noisy boundary, not deterministic


class TestCostAccounting:
    def test_energy_positive_and_recorded(self, charge_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        result = charge_array.search_batch(read[None, :], 4)
        assert result.energy_joules > 0
        assert charge_array.stats.total_energy_joules == pytest.approx(
            result.energy_joules
        )

    def test_current_domain_costs_more_energy(self, charge_array,
                                              current_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        e_charge = charge_array.search_batch(read[None, :], 4).energy_joules
        e_current = current_array.search_batch(read[None, :], 4).energy_joules
        assert e_current > e_charge

    def test_stats_accumulate(self, charge_array, rng):
        for _ in range(3):
            search_one(charge_array, rng.integers(0, 4, 32).astype(np.uint8), 4)
        assert charge_array.stats.n_searches == 3
        assert charge_array.stats.total_latency_ns == pytest.approx(3 * 0.9)


class TestBatchSearch:
    def test_counts_match_scalar_all_modes(self, charge_array,
                                           stored_segments, rng):
        reads = rng.integers(0, 4, (9, 32)).astype(np.uint8)
        for mode in (MatchMode.ED_STAR, MatchMode.HAMMING):
            counts = charge_array.mismatch_counts_batch(reads, mode)
            for q in range(9):
                assert np.array_equal(
                    counts[q], counts_one(charge_array, reads[q], mode)
                )

    def test_dual_counts_match_single_mode(self, charge_array, rng):
        reads = rng.integers(0, 4, (6, 32)).astype(np.uint8)
        ed, hd = charge_array.mismatch_counts_batch_dual(reads)
        assert np.array_equal(
            ed, charge_array.mismatch_counts_batch(reads, MatchMode.ED_STAR)
        )
        assert np.array_equal(
            hd, charge_array.mismatch_counts_batch(reads, MatchMode.HAMMING)
        )

    def test_keyed_noise_is_order_independent(self, stored_segments, rng):
        """Keyed one-row replay in any order matches the batch rows."""
        reads = rng.integers(0, 4, (5, 32)).astype(np.uint8)
        array = CamArray(rows=16, cols=32, domain="charge", noisy=True,
                         seed=4)
        array.store(stored_segments)
        keys = [(100 + q, 1) for q in range(5)]
        batch = array.search_batch(reads, 6, noise_keys=keys)
        for q in reversed(range(5)):
            matches, _, v_ml = search_one(array, reads[q], 6,
                                          noise_keys=[keys[q]])
            assert np.array_equal(batch.v_ml[q], v_ml)
            assert np.array_equal(batch.matches[q], matches)

    def test_threshold_vector_names_search_sweep(self, charge_array, rng):
        """A batch takes one threshold; a vector is a sweep's, and is
        refused before any pass is recorded."""
        reads = rng.integers(0, 4, (4, 32)).astype(np.uint8)
        for thresholds in (np.array([0, 4, 16, 32]), [4, 4, 4, 4],
                           np.array([4])):
            with pytest.raises(ThresholdError, match="search_sweep"):
                charge_array.search_batch(reads, thresholds)
        assert not charge_array.ledger.search_passes()
        sweep = charge_array.search_sweep(reads, np.array([0, 4, 16, 32]))
        for t, threshold in enumerate((0, 4, 16, 32)):
            assert np.array_equal(
                sweep.matches[t],
                charge_array.search_batch(reads, threshold).matches)

    def test_energy_matches_scalar(self, charge_array, current_array, rng):
        reads = rng.integers(0, 4, (3, 32)).astype(np.uint8)
        for array in (charge_array, current_array):
            batch = array.search_batch(reads, 5)
            for q in range(3):
                one = array.search_batch(reads[q:q + 1], 5)
                assert batch.energy_per_query_joules[q] == one.energy_joules
            assert batch.energy_joules == pytest.approx(
                batch.energy_per_query_joules.sum()
            )

    def test_batch_stats_recorded(self, stored_segments, rng):
        array = CamArray(rows=16, cols=32, noisy=False)
        array.store(stored_segments)
        reads = rng.integers(0, 4, (6, 32)).astype(np.uint8)
        array.search_batch(reads, 4)
        assert array.stats.n_searches == 6
        assert array.stats.total_latency_ns == pytest.approx(6 * 0.9)

    def test_empty_batch(self, charge_array):
        batch = charge_array.search_batch(
            np.zeros((0, 32), dtype=np.uint8), 4
        )
        assert batch.n_queries == 0
        assert batch.matches.shape == (0, 16)
        assert batch.energy_joules == 0.0
        assert batch.latency_ns == 0.0

    def test_bad_shapes_rejected(self, charge_array, rng):
        with pytest.raises(CamConfigError):
            charge_array.search_batch(np.zeros((2, 31), dtype=np.uint8), 4)
        with pytest.raises(ThresholdError):
            charge_array.search_batch(
                rng.integers(0, 4, (2, 32)).astype(np.uint8),
                np.array([2, 33]),
            )
        with pytest.raises(CamConfigError):
            charge_array.search_batch(
                rng.integers(0, 4, (2, 32)).astype(np.uint8), 4,
                noise_keys=[(0, 0)],
            )

    def test_non_dna_query_codes_use_fallback(self, charge_array, rng):
        """Query codes outside ACGT still search (comparison fallback)."""
        reads = rng.integers(0, 9, (5, 32)).astype(np.uint8)
        assert reads.max() > 3
        counts = charge_array.mismatch_counts_batch(reads,
                                                    MatchMode.ED_STAR)
        for q in range(5):
            assert np.array_equal(
                counts[q],
                counts_one(charge_array, reads[q], MatchMode.ED_STAR),
            )


class TestRotatedSearch:
    def test_rotation_applied(self, charge_array, stored_segments):
        # Search a segment's right-rotated version as a left-rotated
        # pass (the caller rotates, as the matchers do): the rotations
        # cancel, the row matches exactly, and the pass is tagged.
        rotated_read = np.roll(stored_segments[5], 1)
        matches, counts, _ = search_one(charge_array,
                                        np.roll(rotated_read, -1), 0,
                                        rotation=1)
        assert matches[5]
        assert counts[5] == 0
        assert charge_array.ledger.pass_counts() == {"TasrRotationPass": 1}

    def test_rotation_cycles_recorded(self, charge_array, rng):
        read = rng.integers(0, 4, 32).astype(np.uint8)
        search_one(charge_array, np.roll(read, -2), 4, rotation=2)
        search_one(charge_array, np.roll(read, 3), 4, rotation=-3)
        assert charge_array.stats.n_rotation_cycles == 5


class TestStoredReference:
    """The shareable stored-segment/encoding split behind CamArray."""

    def test_encode_validates_and_encodes_once(self, stored_segments):
        ref = StoredReference.encode(stored_segments)
        assert ref.rows == 16 and ref.cols == 32
        assert ref.n_segments == 16
        # Encoded exactly once, eagerly, at construction.
        assert ref.n_encodes == 1
        assert np.array_equal(ref.segments, stored_segments)
        assert ref.encoded().segments is ref.segments
        # The caller's matrix is copied, not frozen.
        assert stored_segments.flags.writeable
        partial = StoredReference.encode(stored_segments[:5], rows=16)
        assert partial.rows == 16 and partial.n_segments == 5

    def test_encode_rejects_bad_segments(self, stored_segments):
        with pytest.raises(CamConfigError):
            StoredReference.encode(np.zeros((0, 8), dtype=np.uint8))
        with pytest.raises(CamConfigError):
            StoredReference.encode(np.zeros((4, 0), dtype=np.uint8))
        with pytest.raises(CamConfigError, match="exceed"):
            StoredReference.encode(stored_segments, rows=15)
        with pytest.raises(CamConfigError, match="2-bit"):
            StoredReference.encode(np.full((2, 8), 4, dtype=np.uint8))

    @pytest.mark.parametrize("build", ["encode", "adopt_encoded",
                                       "CamArray.store"])
    def test_stored_content_is_read_only(self, stored_segments, build):
        if build == "encode":
            ref = StoredReference.encode(stored_segments)
        elif build == "adopt_encoded":
            ref = StoredReference.adopt_encoded(
                encode_reference(stored_segments.copy()))
            assert ref.n_encodes == 0
        else:
            array = CamArray(rows=16, cols=32)
            array.store(stored_segments)
            ref = array.stored
            assert ref.n_encodes == 1
        with pytest.raises(ValueError):
            ref.segments[0, 0] = 1
        with pytest.raises(ValueError):
            ref.encoded().onehot[0, 0] = 0.5

    def test_adopted_encoding_is_checked(self):
        bad = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        codes = bad.segments.copy()
        codes[0, 0] = 7
        with pytest.raises(CamConfigError, match="2-bit"):
            StoredReference.adopt_encoded(EncodedReference(
                segments=codes, onehot=bad.onehot))

    def test_borrowing_arrays_share_without_reencoding(
            self, stored_segments, rng):
        ref = StoredReference.encode(stored_segments)
        arrays = [CamArray(domain="charge", noisy=True, seed=s, stored=ref)
                  for s in range(4)]
        reads = rng.integers(0, 4, (6, 32)).astype(np.uint8)
        for array in arrays:
            assert array.shares_stored_reference
            assert array.stored is ref
            assert array.rows == 16 and array.cols == 32
            array.search_batch(reads, 4,
                               noise_keys=[(q, 0) for q in range(6)])
        # Four arrays searched; the reference was encoded once, ever.
        assert ref.n_encodes == 1
        # store() on a borrowing array must not mutate the shared state.
        with pytest.raises(CamConfigError):
            arrays[0].store(stored_segments)

    def test_shared_array_bit_identical_to_private(
            self, stored_segments, rng):
        """An array borrowing a shared reference makes the same keyed
        decisions as one that privately stored the same segments with
        the same seed (the session bit-identity anchor)."""
        private = CamArray(rows=16, cols=32, domain="charge", noisy=True,
                           seed=9)
        private.store(stored_segments)
        shared = CamArray(domain="charge", noisy=True, seed=9,
                          stored=StoredReference.encode(stored_segments))
        reads = rng.integers(0, 4, (8, 32)).astype(np.uint8)
        keys = [(q, 1) for q in range(8)]
        ours = shared.search_batch(reads, 5, noise_keys=keys)
        theirs = private.search_batch(reads, 5, noise_keys=keys)
        assert np.array_equal(ours.matches, theirs.matches)
        assert np.array_equal(ours.v_ml, theirs.v_ml)
        assert np.array_equal(ours.mismatch_counts,
                              theirs.mismatch_counts)
        assert ours.energy_joules == theirs.energy_joules

    def test_sessions_keep_private_ledgers_and_noise(
            self, stored_segments, rng):
        ref = StoredReference.encode(stored_segments)
        a = CamArray(domain="charge", noisy=True, seed=1, stored=ref)
        b = CamArray(domain="charge", noisy=True, seed=2, stored=ref)
        read = rng.integers(0, 4, (1, 32)).astype(np.uint8)
        ra = a.search_batch(read, 4, noise_keys=[(0, 0)])
        assert len(a.ledger) == 1
        assert len(b.ledger) == 0  # ledgers are per-array, not shared
        rb = b.search_batch(read, 4, noise_keys=[(0, 0)])
        # Different seeds -> different keyed noise over the same counts.
        assert np.array_equal(ra.mismatch_counts, rb.mismatch_counts)
        assert not np.array_equal(ra.v_ml, rb.v_ml)


class TestStoreSequence:
    """Each ``store`` replaces the array's whole content: after any
    sequence of stores, growing or shrinking within the capacity, the
    array holds, searches and records exactly the latest segments."""

    ROWS, COLS = 8, 12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           sizes=st.lists(st.integers(1, ROWS), min_size=1, max_size=5))
    @example(seed=0, sizes=[8, 4])
    def test_latest_store_is_what_is_searched(self, seed, sizes):
        rng = np.random.default_rng(seed)
        array = CamArray(rows=self.ROWS, cols=self.COLS, noisy=False)
        queries = rng.integers(0, 4, (3, self.COLS)).astype(np.uint8)
        for n_rows in sizes:
            segments = rng.integers(0, 4, (n_rows, self.COLS)).astype(
                np.uint8)
            array.store(segments)
            assert np.array_equal(array.stored_segments(), segments)
            for mode in (MatchMode.ED_STAR, MatchMode.HAMMING):
                expected = _fallback_counts(
                    segments, queries, ed_star=mode is MatchMode.ED_STAR)
                assert np.array_equal(
                    array.mismatch_counts_batch(queries, mode), expected)
            assert array.search_batch(queries, 2).matches.shape == (
                3, n_rows)
            loads = array.ledger.of_type(ReferenceLoad)
            assert loads[-1].n_segments == n_rows
        assert len(loads) == len(sizes)

    def test_store_rejects_what_does_not_fit(self, rng):
        array = CamArray(rows=self.ROWS, cols=self.COLS)
        with pytest.raises(CamConfigError, match="exceed"):
            array.store(rng.integers(0, 4, (self.ROWS + 1, self.COLS)))
        with pytest.raises(CamConfigError, match="does not fit"):
            array.store(rng.integers(0, 4, (2, self.COLS + 1)))
        assert array.stored is None and len(array.ledger) == 0
        with pytest.raises(CamConfigError, match="empty array"):
            array.stored_segments()
