"""Tests for the Eq. (1)/(2) energy and variance models."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.energy import (
    search_energy_eq1,
    search_energy_per_row,
    vml_variance_eq2,
)
from repro.errors import CamConfigError


class TestEq1:
    def test_zero_at_extremes(self):
        assert search_energy_eq1(0, 256, 256) == pytest.approx(0.0)
        assert search_energy_eq1(256, 256, 256) == pytest.approx(0.0)

    def test_peak_at_half(self):
        counts = np.arange(257)
        energy = search_energy_eq1(counts, 256, 256)
        assert int(np.argmax(energy)) == 128

    def test_known_value(self):
        # E = M * n(N-n)/N * C * V^2
        expected = (256 * 128 * 128 / 256
                    * constants.MIM_CAPACITOR_FARADS
                    * constants.VDD_VOLTS**2)
        assert search_energy_eq1(128, 256, 256) == pytest.approx(expected)

    def test_scales_linearly_with_rows(self):
        single = search_energy_eq1(64, 1, 256)
        many = search_energy_eq1(64, 100, 256)
        assert many == pytest.approx(100 * single)

    def test_per_row_sum_matches_eq1_for_uniform_counts(self):
        counts = np.full(256, 100)
        per_row = search_energy_per_row(counts, 256).sum()
        aggregate = search_energy_eq1(100, 256, 256)
        assert per_row == pytest.approx(float(aggregate))

    def test_invalid_counts(self):
        with pytest.raises(CamConfigError):
            search_energy_eq1(300, 256, 256)
        with pytest.raises(CamConfigError):
            search_energy_eq1(10, 0, 256)


class TestEq2:
    def test_symmetry(self):
        """Variance is symmetric around N/2 (n and N-n swap roles)."""
        variance_low = vml_variance_eq2(30, 256)
        variance_high = vml_variance_eq2(226, 256)
        assert variance_low == pytest.approx(float(variance_high))

    def test_known_worst_case(self):
        # Var = n(N-n)/N^3 * sigma^2 * V^2 at n = N/2.
        expected = (128 * 128 / 256**3
                    * constants.ASMCAP_CAPACITOR_SIGMA**2
                    * constants.VDD_VOLTS**2)
        assert vml_variance_eq2(128, 256) == pytest.approx(expected)

    def test_vanishes_at_extremes(self):
        assert vml_variance_eq2(0, 256) == pytest.approx(0.0)
        assert vml_variance_eq2(256, 256) == pytest.approx(0.0)
