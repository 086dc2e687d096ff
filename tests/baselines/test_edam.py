"""Tests for the EDAM baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.baselines.edam import (
    EdamMatcher,
    edam_issue_period_ns,
    edam_search_energy_per_array,
)
from repro.cam.array import CamArray
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=8, read_length=128, n_segments=16,
                         seed=80)


class TestMatcher:
    def test_requires_current_domain(self):
        charge = CamArray(rows=4, cols=16, domain="charge")
        with pytest.raises(CamConfigError):
            EdamMatcher(array=charge)

    def test_invalid_sr_direction_rejected_at_construction(self):
        """A bad direction fails in __init__, before any search runs,
        and even when SR is off."""
        with pytest.raises(CamConfigError, match="sr_direction"):
            EdamMatcher(rows=4, cols=16, sr_direction="up")
        with pytest.raises(CamConfigError, match="sr_direction"):
            EdamMatcher(rows=4, cols=16, enable_sr=True, sr_direction="")

    def test_default_construction(self, dataset):
        matcher = EdamMatcher(rows=16, cols=128, noisy=False)
        matcher.store(dataset.segments)
        assert matcher.array.domain == "current"

    def test_single_search_without_sr(self, dataset):
        matcher = EdamMatcher(rows=16, cols=128, noisy=False)
        matcher.store(dataset.segments)
        outcome = matcher.match(dataset.reads[0].read.codes, 4)
        assert outcome.n_searches == 1

    def test_latency_includes_precharge(self, dataset):
        matcher = EdamMatcher(rows=16, cols=128, noisy=False)
        matcher.store(dataset.segments)
        outcome = matcher.match(dataset.reads[0].read.codes, 4)
        assert outcome.latency_ns == pytest.approx(
            constants.EDAM_SEARCH_TIME_NS + constants.EDAM_PRECHARGE_TIME_NS
        )

    def test_sr_issues_rotated_searches(self, dataset):
        matcher = EdamMatcher(rows=16, cols=128, noisy=False,
                              enable_sr=True, sr_nr=2, sr_direction="both")
        matcher.store(dataset.segments)
        outcome = matcher.match(dataset.reads[0].read.codes, 4)
        assert outcome.n_searches == 5

    def test_sr_or_semantics_recovers_rotation(self, dataset):
        """A read that only matches when rotated: SR must find it."""
        segment = dataset.segments[3]
        rotated_read = np.roll(segment, 1)
        plain = EdamMatcher(rows=16, cols=128, noisy=False)
        plain.store(dataset.segments)
        with_sr = EdamMatcher(rows=16, cols=128, noisy=False,
                              enable_sr=True)
        with_sr.store(dataset.segments)
        assert not plain.match(rotated_read, 0).decisions[3]
        assert with_sr.match(rotated_read, 0).decisions[3]

    def test_matches_origin_like_asmcap_plain(self, dataset):
        """Noiseless EDAM and noiseless ASMCap agree digitally."""
        from repro.core.matcher import AsmCapMatcher, MatcherConfig
        edam = EdamMatcher(rows=16, cols=128, noisy=False)
        edam.store(dataset.segments)
        asmcap_array = CamArray(rows=16, cols=128, domain="charge",
                                noisy=False)
        asmcap_array.store(dataset.segments)
        asmcap = AsmCapMatcher(asmcap_array, dataset.model,
                               MatcherConfig.plain())
        for record in dataset.reads:
            e = edam.match(record.read.codes, 6).decisions
            a = asmcap.match(record.read.codes, 6).decisions
            assert np.array_equal(e, a)


class TestCostModel:
    def test_energy_matches_closed_form_at_typical_activity(self):
        energy = edam_search_energy_per_array()
        assert energy > 0

    def test_issue_period_consistent_with_cell_power(self):
        period = edam_issue_period_ns()
        energy = edam_search_energy_per_array()
        implied_power = energy / (period * 1e-9)
        anchor = constants.EDAM_CELL_POWER_UW * 1e-6 * 256 * 256
        assert implied_power == pytest.approx(anchor)

    def test_edam_slower_than_asmcap(self):
        from repro.arch.power import steady_state_search_period_ns
        ratio = edam_issue_period_ns() / steady_state_search_period_ns()
        # The paper's w/o-strategy speedup over EDAM is 2.8x.
        assert 2.0 <= ratio <= 3.5

    def test_invalid_fraction(self):
        with pytest.raises(CamConfigError):
            edam_search_energy_per_array(mismatch_fraction=1.5)
