"""Tests for the device-variation models — including the paper's
distinguishable-state counts (44 and 566), which must come out exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.energy import vml_variance_eq2
from repro.cam.keyed_noise import fold_key, standard_normals
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation
from repro.errors import CamConfigError


class TestChargeDomain:
    def test_sigma_matches_eq2(self):
        model = ChargeDomainVariation()
        counts = np.array([0, 10, 128, 250, 256])
        sigma = model.sigma_vml(counts, 256)
        expected = np.sqrt(vml_variance_eq2(counts, 256))
        assert np.allclose(sigma, expected)

    def test_sigma_zero_at_extremes(self):
        model = ChargeDomainVariation()
        assert model.sigma_vml(0, 256) == pytest.approx(0.0)
        assert model.sigma_vml(256, 256) == pytest.approx(0.0)

    def test_sigma_peaks_at_half(self):
        model = ChargeDomainVariation()
        counts = np.arange(257)
        sigma = model.sigma_vml(counts, 256)
        assert int(np.argmax(sigma)) == 128

    def test_paper_states_count(self):
        assert ChargeDomainVariation().distinguishable_states() == \
            constants.ASMCAP_DISTINGUISHABLE_STATES

    def test_worst_case_consistent_with_sigma(self):
        model = ChargeDomainVariation()
        assert model.worst_case_sigma(256) == pytest.approx(
            float(model.sigma_vml(128, 256)), rel=1e-6
        )

    def test_zero_variation_rejected_for_states(self):
        with pytest.raises(CamConfigError):
            ChargeDomainVariation(sigma_rel=0.0).distinguishable_states()

    def test_noise_sampling_statistics(self):
        """Keyed normals scaled by sigma_vml — the array's noise draw."""
        model = ChargeDomainVariation()
        counts = np.full(20_000, 128)
        noise = (standard_normals(fold_key((5,)), counts.shape[0])
                 * model.sigma_vml(counts, 256))
        expected_sigma = float(model.sigma_vml(128, 256))
        assert abs(noise.std() - expected_sigma) / expected_sigma < 0.05
        assert abs(noise.mean()) < expected_sigma / 10

    def test_out_of_range_counts(self):
        with pytest.raises(CamConfigError):
            ChargeDomainVariation().sigma_vml(-1, 256)


class TestCurrentDomain:
    def test_paper_states_count(self):
        assert CurrentDomainVariation().distinguishable_states() == \
            constants.EDAM_DISTINGUISHABLE_STATES

    def test_noise_floor_consistent_with_states(self):
        model = CurrentDomainVariation()
        states = model.distinguishable_states()
        floor = model.sensing_noise_floor()
        # At exactly S levels the spacing equals 2*separation*sigma.
        spacing = model.vdd / states
        assert spacing >= 2 * constants.SIGMA_SEPARATION * floor
        # One more state would violate the rule.
        assert model.vdd / (states + 1) < 2 * constants.SIGMA_SEPARATION * floor * (states + 1) / states

    def test_uniform_floor_applied_to_all_counts(self):
        model = CurrentDomainVariation()
        sigma = model.sigma_vml(np.array([1, 50, 200]), 256)
        assert np.allclose(sigma, model.sensing_noise_floor())

    def test_count_dependent_mode(self):
        model = CurrentDomainVariation(count_dependent=True)
        sigma = model.sigma_vml(np.array([4, 16, 64]), 256)
        # sqrt scaling: quadrupling the count doubles sigma.
        assert sigma[1] == pytest.approx(2 * sigma[0])
        assert sigma[2] == pytest.approx(2 * sigma[1])

    def test_count_dependent_worst_case_matches_states_bound(self):
        """The optimistic model's worst case gives the same 44 states."""
        model = CurrentDomainVariation(count_dependent=True)
        sigma_wc = model.worst_case_sigma(44)
        spacing = model.vdd / 44
        assert spacing >= 2 * constants.SIGMA_SEPARATION * sigma_wc
        sigma_wc_45 = model.worst_case_sigma(45)
        assert model.vdd / 45 < 2 * constants.SIGMA_SEPARATION * sigma_wc_45

    def test_timing_jitter_adds(self):
        quiet = CurrentDomainVariation()
        jittery = CurrentDomainVariation(timing_jitter_rel=0.05)
        assert float(jittery.sigma_vml(128, 256)) > \
            float(quiet.sigma_vml(128, 256))

    def test_asmcap_noise_is_much_lower_at_threshold(self):
        """The core reliability claim: near small thresholds the charge
        domain's sigma sits far below the current domain's floor."""
        charge = ChargeDomainVariation()
        current = CurrentDomainVariation()
        for threshold in (1, 4, 8, 16):
            assert (float(charge.sigma_vml(threshold, 256)) * 5
                    < float(current.sigma_vml(threshold, 256)))
