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
from repro.arch.timing import TimingModel
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.cost.views import search_stats
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset


def _ideal_edam(rows: int = 16, cols: int = 128) -> EdamMatcher:
    """EDAM over a noiseless current-domain array."""
    return EdamMatcher(CamArray(rows=rows, cols=cols, domain="current",
                                noisy=False))


def _sr_matcher(dataset) -> AsmCapMatcher:
    """EDAM's Sequence Rotation as the paper's ablation runs it: TASR at
    gamma = 0 on a noiseless array, without HDAC."""
    array = CamArray(rows=16, cols=128, noisy=False)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model,
                         MatcherConfig(enable_hdac=False, tasr_gamma=0.0))


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=8, read_length=128, n_segments=16,
                         seed=80)


class TestMatcher:
    def test_requires_current_domain(self):
        charge = CamArray(rows=4, cols=16, domain="charge")
        with pytest.raises(CamConfigError):
            EdamMatcher(array=charge)

    def test_default_construction(self, dataset):
        matcher = EdamMatcher(rows=16, cols=128)
        matcher.store(dataset.segments)
        assert matcher.array.domain == "current"
        assert matcher.array.noisy

    def test_single_search_without_sr(self, dataset):
        matcher = _ideal_edam()
        matcher.store(dataset.segments)
        outcome = matcher.match(dataset.reads[0].read.codes, 4)
        assert outcome.n_searches == 1

    def test_latency_includes_precharge(self, dataset):
        """The Table I cycle already holds the pre-charge phase, so a
        match costs its pass's ledger latency: 2.4 ns."""
        assert sum(TimingModel("current").search_phases_ns().values()) == \
            pytest.approx(constants.EDAM_SEARCH_TIME_NS)
        matcher = _ideal_edam()
        matcher.store(dataset.segments)
        outcome = matcher.match(dataset.reads[0].read.codes, 4)
        ledger = search_stats(matcher.array.ledger)
        assert outcome.latency_ns == ledger.total_latency_ns
        assert outcome.latency_ns == pytest.approx(2.4)

    def test_sr_issues_rotated_searches(self, dataset):
        """EDAM's unconditional Sequence Rotation is TASR at gamma = 0
        (``Tl`` clamps to 1): at NR = 2 every read at T >= 1 costs the
        base search plus four rotated ones."""
        matcher = _sr_matcher(dataset)
        assert matcher.tasr_lower_bound() == 1
        outcome = matcher.match(dataset.reads[0].read.codes, 1)
        assert outcome.n_searches == 5

    def test_sr_or_semantics_recovers_rotation(self, dataset):
        """A read that only matches when rotated: SR must find it.

        ED* already tolerates a one-base shift, so the read is rotated
        by two bases, which only a rotated search brings back within
        reach of the threshold."""
        segment = dataset.segments[3]
        rotated_read = np.roll(segment, 2)
        plain = _ideal_edam()
        plain.store(dataset.segments)
        with_sr = _sr_matcher(dataset)
        assert not plain.match(rotated_read, 1).decisions[3]
        assert with_sr.match(rotated_read, 1).decisions[3]

    def test_matches_origin_like_asmcap_plain(self, dataset):
        """Noiseless EDAM and noiseless ASMCap agree digitally."""
        edam = _ideal_edam()
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

