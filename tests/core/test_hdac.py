"""Tests for Algorithm 1 (HDAC), applied on keyed draw streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_keyed_selection

from repro.cam.keyed_noise import fold_key
from repro.core.hdac import _keyed_selection, hdac_correct_batch
from repro.errors import ThresholdError

#: One folded keyed-stream state (a query's HDAC stream).
STATE = fold_key((7,))


class TestAgreementCases:
    def test_agreeing_decisions_untouched(self):
        decisions = np.array([True, False, True, False])
        out = hdac_correct_batch(decisions, decisions.copy(), 1.0, STATE)
        assert np.array_equal(out, decisions)

    def test_p_zero_keeps_ed_star(self):
        ed = np.array([True, True, False])
        hd = np.array([False, False, True])
        assert np.array_equal(hdac_correct_batch(ed, hd, 0.0, STATE), ed)

    def test_p_one_takes_hamming(self):
        ed = np.array([True, True, False])
        hd = np.array([False, False, True])
        assert np.array_equal(hdac_correct_batch(ed, hd, 1.0, STATE), hd)


class TestProbabilisticSelection:
    def test_selection_rate_matches_p(self):
        n = 20_000
        ed = np.ones(n, dtype=bool)
        hd = np.zeros(n, dtype=bool)
        out = hdac_correct_batch(ed, hd, 0.3, STATE)
        n_hd_selected = int((~out).sum())
        assert n_hd_selected / n == pytest.approx(0.3, abs=0.02)

    def test_only_disagreeing_rows_touched(self):
        ed = np.array([True, True, False, False])
        hd = np.array([True, False, False, True])
        out = hdac_correct_batch(ed, hd, 1.0, STATE)
        # Rows 0 and 2 agree and must be preserved.
        assert out[0] == ed[0]
        assert out[2] == ed[2]
        assert np.array_equal(out, hd)

    def test_deterministic_given_seed(self):
        ed = np.random.default_rng(1).random(100) < 0.5
        hd = np.random.default_rng(2).random(100) < 0.5
        a = hdac_correct_batch(ed, hd, 0.5, STATE)
        b = hdac_correct_batch(ed, hd, 0.5, STATE)
        assert np.array_equal(a, b)
        other = hdac_correct_batch(ed, hd, 0.5, fold_key((8,)))
        assert not np.array_equal(a, other)


class TestCorrectionSemantics:
    def test_substitution_hiding_fp_corrected(self):
        """The Fig. 5 scenario: ED* says match (hidden substitutions),
        HD says mismatch; with p = 1 the FP is corrected."""
        ed_star_match = np.array([True])
        hamming_mismatch = np.array([False])
        out = hdac_correct_batch(ed_star_match, hamming_mismatch, 1.0, STATE)
        assert not out[0]


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ThresholdError):
            hdac_correct_batch(np.array([True]), np.array([True, False]),
                               0.5, STATE)

    def test_invalid_probability(self):
        with pytest.raises(ThresholdError):
            hdac_correct_batch(np.array([True]), np.array([False]), 1.5,
                               STATE)

    def test_inputs_not_mutated(self):
        ed = np.array([True, False])
        hd = np.array([False, True])
        ed_copy, hd_copy = ed.copy(), hd.copy()
        hdac_correct_batch(ed, hd, 1.0, STATE)
        assert np.array_equal(ed, ed_copy)
        assert np.array_equal(hd, hd_copy)


@st.composite
def _decision_blocks(draw):
    """``(T, B, M)`` ED*/HD blocks with per-threshold ``p`` and
    per-query states, as a sweep hands them to the selection."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(0, 5),
                           st.integers(0, 12)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rate = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    ed = rng.random(shape) < 0.5
    hd = ed ^ (rng.random(shape) < rate)
    p = rng.random((shape[0], 1, 1))
    states = rng.integers(0, 2**63, (shape[1], 1), dtype=np.uint64)
    return ed, hd, p, states


class TestSparseDraws:
    """Draws at the disagreeing cells only equal the dense form, which
    draws for every cell and masks."""

    @settings(max_examples=120, deadline=None)
    @given(_decision_blocks())
    def test_equals_dense_selection(self, block):
        ed, hd, p, states = block
        assert np.array_equal(_keyed_selection(ed, hd, p, states),
                              dense_keyed_selection(ed, hd, p, states))

    def test_broadcasts_like_dense(self):
        """A scalar state and p over a 1-D block, and a p with an
        extra leading axis, give the dense form's shape."""
        ed = np.array([True, False, True, False, True])
        hd = ~ed
        for p, states in ((np.full(1, 0.5), np.full(1, STATE)),
                          (np.full((2, 1), 0.5), np.full(1, STATE))):
            want = dense_keyed_selection(ed, hd, p, states)
            got = _keyed_selection(ed, hd, p, states)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_mis_broadcast_raises_without_disagreement(self):
        block = np.zeros((2, 3, 4), dtype=bool)
        with pytest.raises(ValueError):
            _keyed_selection(block, block, np.zeros((3, 1, 1)),
                             np.zeros((3, 1), dtype=np.uint64))
