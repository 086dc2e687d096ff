"""Tests for the CM-CPU baseline."""

from __future__ import annotations

import pytest

from repro import constants
from repro.baselines.cm_cpu import CmCpuBaseline
from repro.distance.edit_distance import edit_distance
from repro.errors import ThresholdError
from repro.genome.generator import generate_reference
from repro.genome.sequence import DnaSequence


class TestFunctional:
    def test_exact_decision(self):
        baseline = CmCpuBaseline()
        a = DnaSequence("ACGTACGTAC")
        b = DnaSequence("ACGAACGTAC")
        outcome = baseline.match(a, b, threshold=1)
        assert outcome.distance == edit_distance(a, b)
        assert outcome.decision

    def test_decision_respects_threshold(self):
        baseline = CmCpuBaseline()
        a = DnaSequence("AAAAAAAA")
        b = DnaSequence("TTTTTTTT")
        assert not baseline.match(a, b, threshold=3).decision
        assert baseline.match(a, b, threshold=8).decision

    def test_negative_threshold(self):
        baseline = CmCpuBaseline()
        with pytest.raises(ThresholdError):
            baseline.match(DnaSequence("A"), DnaSequence("A"), -1)


class TestCostModel:
    def test_cell_updates_counted(self):
        baseline = CmCpuBaseline()
        a = generate_reference(50, seed=0)
        b = generate_reference(40, seed=1)
        outcome = baseline.match(a, b, 5)
        assert outcome.cell_updates == 50 * 40

    def test_latency_scales_quadratically(self):
        baseline = CmCpuBaseline()
        assert baseline.read_latency_ns(512) == pytest.approx(
            4 * baseline.read_latency_ns(256)
        )

    def test_energy_is_power_times_time(self):
        baseline = CmCpuBaseline()
        latency_s = baseline.read_latency_ns(256) * 1e-9
        assert baseline.read_energy_joules(256) == pytest.approx(
            latency_s * constants.CM_CPU_POWER_W
        )

    def test_paper_scale_per_read(self):
        """A 256x256 DP at the calibrated rate lands near 0.8 ms."""
        latency_ms = CmCpuBaseline().read_latency_ns(256) * 1e-6
        assert 0.1 < latency_ms < 10.0

    def test_invalid_parameters(self):
        with pytest.raises(ThresholdError):
            CmCpuBaseline().read_latency_ns(0)
