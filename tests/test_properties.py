"""Cross-cutting property-based tests (hypothesis).

Invariants that span modules — the relationships the paper's whole
argument rests on — fuzzed over random sequences, error models and
hardware parameters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cam.energy import search_energy_per_row, vml_variance_eq2
from repro.core.policy import hdac_probability, tasr_lower_bound
from repro.distance.ed_star import ed_star
from repro.distance.edit_distance import edit_distance
from repro.distance.hamming import hamming_distance
from repro.genome.sequence import DnaSequence

equal_length_pair = st.integers(2, 48).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="ACGT", min_size=n, max_size=n),
        st.text(alphabet="ACGT", min_size=n, max_size=n),
    )
)


class TestDistanceHierarchy:
    """ED* <= HD and ED <= HD for equal lengths; all zero on identity."""

    @settings(max_examples=120, deadline=None)
    @given(equal_length_pair)
    def test_ed_star_below_hamming(self, pair):
        segment, read = DnaSequence(pair[0]), DnaSequence(pair[1])
        assert ed_star(segment, read) <= hamming_distance(segment, read)

    @settings(max_examples=120, deadline=None)
    @given(equal_length_pair)
    def test_edit_below_hamming(self, pair):
        a, b = DnaSequence(pair[0]), DnaSequence(pair[1])
        assert edit_distance(a, b) <= hamming_distance(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=1, max_size=48))
    def test_identity_everywhere(self, text):
        seq = DnaSequence(text)
        assert ed_star(seq, seq) == 0
        assert hamming_distance(seq, seq) == 0
        assert edit_distance(seq, seq) == 0


class TestThresholdMonotonicity:
    """Raising T can only add matches (for any fixed noiseless array)."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (8, 24)).astype(np.uint8)
        read = rng.integers(0, 4, 24).astype(np.uint8)
        array = CamArray(rows=8, cols=24, noisy=False)
        array.store(segments)
        matches = array.search_sweep(read[None, :], np.arange(25)).matches
        assert (matches[:-1] <= matches[1:]).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_hamming_mode_never_matches_more(self, seed):
        """HD counts dominate ED* counts, so HD matches are a subset."""
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (8, 24)).astype(np.uint8)
        read = rng.integers(0, 4, 24).astype(np.uint8)
        array = CamArray(rows=8, cols=24, noisy=False)
        array.store(segments)
        for threshold in (0, 3, 8):
            ed_matches = array.search_batch(read[None, :], threshold,
                                            MatchMode.ED_STAR).matches
            hd_matches = array.search_batch(read[None, :], threshold,
                                            MatchMode.HAMMING).matches
            assert (hd_matches <= ed_matches).all()


class TestPolicyProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.integers(0, 32))
    def test_hdac_probability_bounded(self, es, eid, threshold):
        p = hdac_probability(es, eid, threshold)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 0.5), st.integers(1, 30),
           st.floats(1e-6, 0.5), st.integers(0, 32))
    def test_hdac_monotone_in_indels(self, es, threshold_scale, eid,
                                     threshold):
        p_low = hdac_probability(0.01, eid / 2, threshold)
        p_high = hdac_probability(0.01, eid, threshold)
        assert p_high <= p_low + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-5, 0.9), st.integers(1, 2048))
    def test_tasr_bound_in_range(self, eid, length):
        bound = tasr_lower_bound(eid, length)
        assert 1 <= bound <= length + 1


class TestEnergyProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 512))
    def test_energy_symmetric_in_mismatch_count(self, n_cells):
        counts = np.arange(n_cells + 1)
        energy = search_energy_per_row(counts, n_cells)
        assert np.allclose(energy, energy[::-1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 512))
    def test_variance_nonnegative_and_bounded(self, n_cells):
        counts = np.arange(n_cells + 1)
        variance = vml_variance_eq2(counts, n_cells)
        assert (variance >= 0).all()
        # Peak variance at N/2 bounds everything.
        assert variance.max() == pytest.approx(
            float(vml_variance_eq2(n_cells // 2, n_cells)), rel=0.5
        )


class TestBatchScalarEquivalence:
    """search_batch and per-query one-row searches are bit-identical.

    Fuzzed over random query blocks, geometries and thresholds, in both
    analog domains and both match modes — the invariant the batched
    engine (and everything sharded on top of it) rests on.
    """

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from(["charge", "current"]),
           st.sampled_from([MatchMode.ED_STAR, MatchMode.HAMMING]))
    def test_keyed_batch_matches_keyed_scalar(self, seed, domain, mode):
        """Keyed draws depend only on the key: order cannot matter."""
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(2, 24))
        n_queries = int(rng.integers(1, 8))
        threshold = int(rng.integers(0, cols + 1))
        segments = rng.integers(0, 4, (rows, cols)).astype(np.uint8)
        queries = rng.integers(0, 4, (n_queries, cols)).astype(np.uint8)
        array = CamArray(rows=rows, cols=cols, domain=domain,
                         noisy=True, seed=seed)
        array.store(segments)
        keys = [(int(k), 7) for k in rng.integers(0, 1 << 32, n_queries)]
        batch = array.search_batch(queries, threshold, mode,
                                   noise_keys=keys)
        for q in reversed(range(n_queries)):
            one = array.search_batch(queries[q:q + 1], threshold, mode,
                                     noise_keys=[keys[q]])
            assert np.array_equal(batch.matches[q], one.matches[0])
            assert np.array_equal(batch.mismatch_counts[q],
                                  one.mismatch_counts[0])
            assert np.array_equal(batch.v_ml[q], one.v_ml[0])


class TestStorageRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16),
           st.integers(1, 32))
    def test_store_then_read_back(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (rows, cols)).astype(np.uint8)
        array = CamArray(rows=rows, cols=cols, noisy=False)
        array.store(segments)
        assert np.array_equal(array.stored_segments(), segments)
        # Every stored row matches itself exactly at T = 0.
        assert array.search_batch(segments, 0).matches.diagonal().all()
