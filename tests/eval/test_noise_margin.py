"""Tests for the analytic noise-margin model — including agreement with
the Monte-Carlo CAM arrays it predicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.errors import ThresholdError
from repro.eval.noise_margin import flip_probability


class TestFlipProbability:
    def test_far_from_boundary_never_flips(self):
        p = flip_probability(100, threshold=4, n_cells=256, domain="current")
        assert float(p) < 1e-12

    def test_boundary_row_flips_meaningfully_in_current_domain(self):
        p = flip_probability(4, threshold=4, n_cells=256, domain="current")
        assert 0.05 < float(p) < 0.5

    def test_charge_domain_negligible_at_small_thresholds(self):
        """The Section V-D reliability claim in closed form."""
        for threshold in (1, 4, 8, 16):
            p = flip_probability(threshold, threshold, 256, "charge")
            assert float(p) < 1e-6

    def test_strict_rule_puts_boundary_row_at_half(self):
        p = flip_probability(4, threshold=4, n_cells=256, domain="current",
                             strict_paper_rule=True)
        assert float(p) == pytest.approx(0.5)

    def test_monotone_in_distance_from_boundary(self):
        # Counts 4 and 5 straddle the midpoint reference symmetrically
        # (equal flip probability); beyond that the margin grows.
        counts = np.array([5, 6, 7, 8])
        p = flip_probability(counts, threshold=4, n_cells=256,
                             domain="current")
        assert (np.diff(p) < 0).all()
        p_4 = flip_probability(4, threshold=4, n_cells=256, domain="current")
        assert float(p_4) == pytest.approx(float(p[0]))

    def test_invalid_domain(self):
        with pytest.raises(ThresholdError):
            flip_probability(1, 1, 256, "optical")

    def test_invalid_threshold(self):
        with pytest.raises(ThresholdError):
            flip_probability(1, 300, 256)


class TestAgainstMonteCarlo:
    def test_predicts_current_domain_flip_rate(self, rng):
        """The analytic flip probability must match sampled hardware."""
        n_cells = 256
        segments = rng.integers(0, 4, (1, n_cells)).astype(np.uint8)
        array = CamArray(rows=1, cols=n_cells, domain="current", seed=7)
        array.store(segments)
        read = segments[0].copy()
        for i in (40, 90, 140, 190):
            read[i] = (read[i] + 2) % 4
        from repro.cam.cell import MatchMode
        count = int(array.mismatch_counts_batch(read[None, :],
                                                MatchMode.ED_STAR)[0, 0])
        threshold = count  # boundary row
        predicted = float(flip_probability(count, threshold, n_cells,
                                           "current"))
        # One trial per noise key: 3000 keyed copies of the same read.
        trials = 3000
        result = array.search_batch(np.tile(read, (trials, 1)), threshold)
        flips = int((~result.matches[:, 0]).sum())
        measured = flips / trials
        assert measured == pytest.approx(predicted, abs=0.03)
