"""Tests for Algorithm 1 (HDAC), applied on keyed draw streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.keyed_noise import fold_key
from repro.core.hdac import hdac_correct_batch
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
