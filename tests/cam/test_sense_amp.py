"""Tests for the sense-amplifier threshold comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.sense_amp import SenseAmplifier
from repro.errors import ThresholdError


class TestReferenceVoltage:
    def test_midpoint_rule(self):
        sa = SenseAmplifier(vdd=1.2, rising=True)
        assert sa.reference_voltage(4, 256) == pytest.approx(4.5 / 256 * 1.2)

    def test_strict_paper_rule(self):
        sa = SenseAmplifier(vdd=1.2, rising=True, strict_paper_rule=True)
        assert sa.reference_voltage(4, 256) == pytest.approx(4 / 256 * 1.2)

    def test_falling_polarity(self):
        sa = SenseAmplifier(vdd=1.2, rising=False)
        assert sa.reference_voltage(4, 256) == pytest.approx(
            (1 - 4.5 / 256) * 1.2
        )

    def test_threshold_out_of_range(self):
        sa = SenseAmplifier()
        with pytest.raises(ThresholdError):
            sa.reference_voltage(-1, 256)
        with pytest.raises(ThresholdError):
            sa.reference_voltage(257, 256)


class TestDecide:
    def test_rising_decisions(self):
        sa = SenseAmplifier(vdd=1.2, rising=True)
        # counts 3, 4 -> match at T=4; count 5 -> mismatch.
        v = np.array([3, 4, 5]) / 256 * 1.2
        assert sa.decide(v, 4, 256).tolist() == [True, True, False]

    def test_falling_decisions(self):
        sa = SenseAmplifier(vdd=1.2, rising=False)
        v = (1 - np.array([3, 4, 5]) / 256) * 1.2
        assert sa.decide(v, 4, 256).tolist() == [True, True, False]

    def test_exactly_at_threshold_matches(self):
        """The midpoint rule puts count T strictly on the match side."""
        sa = SenseAmplifier(vdd=1.2, rising=True)
        v_at_t = np.array([8.0]) / 256 * 1.2
        assert sa.decide(v_at_t, 8, 256).tolist() == [True]
