"""Tests for the cycle-level timing model."""

from __future__ import annotations

import pytest

from repro import constants
from repro.arch.timing import TimingModel
from repro.errors import ArchConfigError


class TestSearchCycle:
    def test_charge_domain_matches_table1(self):
        assert TimingModel("charge").search_cycle_ns == \
            constants.ASMCAP_SEARCH_TIME_NS

    def test_current_domain_matches_table1(self):
        assert TimingModel("current").search_cycle_ns == \
            constants.EDAM_SEARCH_TIME_NS

    def test_phases_sum_to_cycle(self):
        for domain in ("charge", "current"):
            model = TimingModel(domain)
            assert sum(model.search_phases_ns().values()) == \
                pytest.approx(model.search_cycle_ns)

    def test_edam_has_precharge_and_sampling_phases(self):
        phases = TimingModel("current").search_phases_ns()
        assert "precharge" in phases
        assert "sample_hold" in phases

    def test_asmcap_skips_those_phases(self):
        phases = TimingModel("charge").search_phases_ns()
        assert "precharge" not in phases
        assert "sample_hold" not in phases

    def test_invalid_domain(self):
        with pytest.raises(ArchConfigError):
            TimingModel("other")


class TestReadLatency:
    def test_speed_ratio_matches_paper(self):
        """Table I: EDAM search is ~2.6-2.7x slower."""
        ratio = (TimingModel("current").search_cycle_ns
                 / TimingModel("charge").search_cycle_ns)
        assert 2.5 <= ratio <= 2.8
