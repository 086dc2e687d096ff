"""Tests for the matchline transfer functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.matchline import ChargeDomainMatchline, CurrentDomainMatchline
from repro.errors import CamConfigError


class TestChargeDomain:
    def test_linear_transfer(self):
        ml = ChargeDomainMatchline(vdd=1.2)
        volts = ml.ideal_voltage(np.array([0, 64, 128, 256]), 256)
        assert volts.tolist() == pytest.approx([0.0, 0.3, 0.6, 1.2])

    def test_level_spacing(self):
        volts = ChargeDomainMatchline(vdd=1.2).ideal_voltage(
            np.array([4, 5]), 256)
        assert volts[1] - volts[0] == pytest.approx(1.2 / 256)

    def test_scalar_input(self):
        assert ChargeDomainMatchline(vdd=1.0).ideal_voltage(5, 10) == \
            pytest.approx(0.5)

    def test_out_of_range_counts(self):
        with pytest.raises(CamConfigError):
            ChargeDomainMatchline().ideal_voltage(300, 256)

    def test_no_precharge_needed(self):
        assert not ChargeDomainMatchline.REQUIRES_PRECHARGE
        assert not ChargeDomainMatchline.REQUIRES_SAMPLING


class TestCurrentDomain:
    def test_sampled_voltage_falls_with_mismatches(self):
        ml = CurrentDomainMatchline(vdd=1.2)
        volts = ml.sampled_voltage(np.array([0, 128, 256]), 256)
        assert volts.tolist() == pytest.approx([1.2, 0.6, 0.0])

    def test_complementary_to_charge_domain(self):
        """Both domains span the same N-level scale (design point)."""
        charge = ChargeDomainMatchline(vdd=1.2)
        current = CurrentDomainMatchline(vdd=1.2)
        counts = np.arange(0, 257, 32)
        assert np.allclose(
            charge.ideal_voltage(counts, 256)
            + current.sampled_voltage(counts, 256),
            1.2,
        )

    def test_precharge_and_sampling_required(self):
        assert CurrentDomainMatchline.REQUIRES_PRECHARGE
        assert CurrentDomainMatchline.REQUIRES_SAMPLING

    def test_invalid_cells(self):
        with pytest.raises(CamConfigError):
            CurrentDomainMatchline().sampled_voltage(0, 0)
