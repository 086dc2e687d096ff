"""Tests for the device-variation models — including the paper's
distinguishable-state counts (44 and 566), which must come out exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
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


class TestNarrowCounts:
    """Unsigned count blocks (the count kernel's dtype) widen before
    the Eq. (2) product: ``256 * (512 - 256)`` wraps to 0 in uint16."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_unsigned_counts_equal_int64(self, dtype):
        wide = np.array([0, 1, 200, 255], dtype=np.int64)
        if np.iinfo(dtype).max >= 256:
            wide = np.append(wide, [256, 300, 512])
        for model in (ChargeDomainVariation(),
                      CurrentDomainVariation(count_dependent=True)):
            expected = model.sigma_vml(wide, 512)
            got = model.sigma_vml(wide.astype(dtype), 512)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_array_voltages_at_half_row(self):
        """A 512-cell array's lazy ``v_ml`` at ``n = N/2`` equals the
        voltages of the same search over int64 counts."""
        rng = np.random.default_rng(5)
        segments = rng.integers(0, 4, (8, 512)).astype(np.uint8)
        queries = segments[:3].copy()
        queries[:, :256] = (queries[:, :256] + 1) % 4  # HD = 256 at row q
        array = CamArray(rows=8, cols=512, seed=3)
        array.store(segments)
        counts = array.mismatch_counts_batch(queries, MatchMode.HAMMING)
        assert counts.dtype == np.uint16
        assert (np.diagonal(counts) == 256).all()
        expected = array.search_batch(
            queries, 8, MatchMode.HAMMING,
            precomputed_counts=counts.astype(np.int64)).v_ml
        for precomputed in (None, counts.astype(np.uint16)):
            assert np.array_equal(array.search_batch(
                queries, 8, MatchMode.HAMMING,
                precomputed_counts=precomputed).v_ml, expected)
        # The half-row voltages carry noise, not the bare ideal level.
        assert (np.diagonal(expected) != 0.5 * constants.VDD_VOLTS).all()


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

    def test_asmcap_noise_is_much_lower_at_threshold(self):
        """The core reliability claim: near small thresholds the charge
        domain's sigma sits far below the current domain's floor."""
        charge = ChargeDomainVariation()
        current = CurrentDomainVariation()
        for threshold in (1, 4, 8, 16):
            assert (float(charge.sigma_vml(threshold, 256)) * 5
                    < float(current.sigma_vml(threshold, 256)))

    @pytest.mark.parametrize("count_dependent", [False, True])
    def test_zero_variation_is_a_zero_floor(self, count_dependent):
        model = CurrentDomainVariation(sigma_rel=0.0,
                                       count_dependent=count_dependent)
        assert model.sensing_noise_floor() == 0.0
        assert not model.sigma_vml(np.arange(33), 32).any()
        assert model.worst_case_sigma(32) == 0.0
        with pytest.raises(CamConfigError):
            model.distinguishable_states()

    def test_vanishing_variation_is_a_zero_floor(self):
        model = CurrentDomainVariation(sigma_rel=1e-200)
        assert model.sensing_noise_floor() == 0.0
        assert not model.sigma_vml(np.arange(33), 32).any()

    def test_unresolvable_variation_rejected(self):
        model = CurrentDomainVariation(sigma_rel=0.2)
        with pytest.raises(CamConfigError):
            model.sensing_noise_floor()
