"""Tests for the cycle-level timing model."""

from __future__ import annotations

import pytest

from repro import constants
from repro.arch.timing import TimingModel
from repro.errors import ArchConfigError


def _cycle_ns(domain: str) -> float:
    return sum(TimingModel(domain).search_phases_ns().values())


class TestSearchCycle:
    def test_charge_domain_matches_table1(self):
        assert _cycle_ns("charge") == pytest.approx(constants.ASMCAP_SEARCH_TIME_NS)

    def test_current_domain_matches_table1(self):
        assert _cycle_ns("current") == pytest.approx(constants.EDAM_SEARCH_TIME_NS)

    def test_phases_sum_to_cycle(self):
        """Every phase is positive; together they are the cycle."""
        for domain in ("charge", "current"):
            phases = TimingModel(domain).search_phases_ns().values()
            assert all(ns > 0 for ns in phases)
            assert sum(phases) == pytest.approx(_cycle_ns(domain))

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
        ratio = _cycle_ns("current") / _cycle_ns("charge")
        assert 2.5 <= ratio <= 2.8
