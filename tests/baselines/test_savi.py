"""Tests for the SaVI seed-and-vote baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.savi import SaviBaseline
from repro.errors import DatasetError
from repro.genome.edits import ErrorModel
from repro.genome.generator import generate_reference
from repro.genome.reads import ReadSampler


@pytest.fixture(scope="module")
def reference():
    return generate_reference(20_000, seed=90, with_repeats=False)


@pytest.fixture(scope="module")
def savi(reference):
    return SaviBaseline(reference, k=16)


class TestMapping:
    def test_clean_read_maps_to_origin(self, reference, savi):
        read = reference.window(5000, 256)
        outcome = savi.map_read(read)
        assert outcome.mapped
        assert outcome.origin == 5000

    def test_random_read_does_not_map(self, savi, rng):
        from repro.genome.sequence import DnaSequence
        read = DnaSequence(rng.integers(0, 4, 256).astype(np.uint8))
        outcome = savi.map_read(read)
        # A random read shares no 16-mers with the reference (whp).
        assert not outcome.mapped

    def test_mild_errors_still_map(self, reference, savi):
        """Sparse substitutions leave enough intact seeds to vote."""
        sampler = ReadSampler(reference, 256,
                              ErrorModel(substitution=0.005), seed=1)
        mapped = 0
        for record in sampler.sample_batch(20):
            outcome = savi.map_read(record.read)
            if outcome.mapped and abs(outcome.origin - record.origin) <= 3:
                mapped += 1
        assert mapped >= 15

    def test_heavy_errors_break_seeding(self, reference, savi):
        """Dense errors break the exact seeds — SaVI's accuracy loss.

        At 15 % substitutions a 16-mer survives with p = 0.85^16 ~ 7 %,
        so most reads keep fewer than the 2 votes needed to map.
        """
        mild_sampler = ReadSampler(reference, 256,
                                   ErrorModel(substitution=0.005), seed=2)
        heavy_sampler = ReadSampler(reference, 256,
                                    ErrorModel(substitution=0.15), seed=2)
        mild = sum(int(savi.map_read(r.read).mapped)
                   for r in mild_sampler.sample_batch(20))
        heavy = sum(int(savi.map_read(r.read).mapped)
                    for r in heavy_sampler.sample_batch(20))
        assert heavy < mild
        assert heavy <= 12

    def test_short_read_rejected(self, savi):
        from repro.genome.sequence import DnaSequence
        with pytest.raises(DatasetError):
            savi.map_read(DnaSequence("ACGT"))


class TestSegmentDecisions:
    def test_decision_vector_shape(self, reference, savi):
        read = reference.window(256 * 4, 256)
        decisions = savi.decisions_for_segments(read, n_segments=16,
                                                segment_length=256)
        assert decisions.shape == (16,)
        assert decisions[4]
        assert decisions.sum() == 1


class TestCostModel:
    def test_kmers_counted(self, reference, savi):
        read = reference.window(0, 256)
        outcome = savi.map_read(read)
        assert outcome.n_kmers == 256 // 16

    def test_latency_model_matches_functional(self, reference, savi):
        read = reference.window(0, 256)
        outcome = savi.map_read(read)
        assert outcome.latency_ns == pytest.approx(
            savi.read_latency_ns(256)
        )

    def test_energy_positive(self, savi):
        assert savi.read_energy_joules(256) > 0

    def test_invalid_parameters(self, reference):
        with pytest.raises(DatasetError, match="k must be positive"):
            SaviBaseline(reference, k=0)
