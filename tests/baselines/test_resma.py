"""Tests for the ReSMA baseline."""

from __future__ import annotations

import pytest

from repro import constants
from repro.baselines.resma import ResmaBaseline
from repro.distance.edit_distance import edit_distance
from repro.errors import ThresholdError
from repro.genome.generator import generate_reference
from repro.genome.sequence import DnaSequence


class TestFunctional:
    def test_exact_decision(self):
        baseline = ResmaBaseline()
        a = generate_reference(30, seed=0)
        b = generate_reference(30, seed=1)
        outcome = baseline.match(a, b, threshold=20)
        assert outcome.distance == edit_distance(a, b)
        assert outcome.decision == (outcome.distance <= 20)

    def test_wavefront_statistics(self):
        baseline = ResmaBaseline()
        a = generate_reference(20, seed=2)
        b = generate_reference(25, seed=3)
        outcome = baseline.match(a, b, 10)
        assert outcome.n_wavefronts == 20 + 25 - 1
        assert outcome.cell_updates == 20 * 25


class TestCostModel:
    def test_latency_linear_in_wavefronts(self):
        baseline = ResmaBaseline()
        l256 = baseline.read_latency_ns(256) - constants.RESMA_FILTER_NS
        l128 = baseline.read_latency_ns(128) - constants.RESMA_FILTER_NS
        assert l256 / l128 == pytest.approx((2 * 256 - 1) / (2 * 128 - 1))

    def test_energy_write_dominated(self):
        """Cell-update (write) energy must dwarf the filter energy."""
        baseline = ResmaBaseline()
        total = baseline.read_energy_joules(256)
        updates = 256 * 256 * constants.RESMA_CELL_UPDATE_ENERGY_J
        assert updates / total > 0.99

    def test_match_costs_equal_model_costs(self):
        baseline = ResmaBaseline()
        a = generate_reference(64, seed=4)
        b = generate_reference(64, seed=5)
        outcome = baseline.match(a, b, 10)
        assert outcome.latency_ns == pytest.approx(
            baseline.read_latency_ns(64)
        )
        assert outcome.energy_joules == pytest.approx(
            baseline.read_energy_joules(64)
        )

    def test_anti_diagonal_beats_cpu_row_order(self):
        """ReSMA's whole point: wavefront latency << cell-count latency."""
        from repro.baselines.cm_cpu import CmCpuBaseline
        assert (ResmaBaseline().read_latency_ns(256)
                < CmCpuBaseline().read_latency_ns(256))

    def test_invalid_parameters(self):
        with pytest.raises(ThresholdError):
            ResmaBaseline().read_latency_ns(0)
        with pytest.raises(ThresholdError):
            ResmaBaseline().match(DnaSequence("A"), DnaSequence("A"), -2)
