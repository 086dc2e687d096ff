"""Tests for the synthetic reference generator."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError
from repro.genome.generator import (
    ReferenceGenerator,
    RepeatProfile,
    generate_reference,
)
from repro.genome.kmer import KmerIndex


class TestRepeatProfile:
    def test_defaults_validate(self):
        RepeatProfile().validate()

    def test_bad_tandem_fraction(self):
        with pytest.raises(DatasetError):
            RepeatProfile(tandem_fraction=1.5).validate()

    def test_fractions_must_leave_unique_sequence(self):
        with pytest.raises(DatasetError):
            RepeatProfile(tandem_fraction=0.5,
                          interspersed_fraction=0.5).validate()

    def test_bad_motif_lengths(self):
        with pytest.raises(DatasetError):
            RepeatProfile(tandem_motif_lengths=(3, 2)).validate()

    def test_bad_divergence(self):
        with pytest.raises(DatasetError):
            RepeatProfile(interspersed_divergence=1.0).validate()


class TestGeneration:
    def test_exact_length(self):
        assert len(generate_reference(1234, seed=0)) == 1234

    def test_deterministic_with_seed(self):
        a = generate_reference(500, seed=42)
        b = generate_reference(500, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_reference(500, seed=1)
        b = generate_reference(500, seed=2)
        assert a != b

    def test_zero_length_raises(self):
        with pytest.raises(DatasetError):
            generate_reference(0)

    def test_gc_content_near_target(self):
        ref = generate_reference(100_000, seed=3, with_repeats=False)
        assert abs(ref.gc_content() - 0.41) < 0.01

    def test_no_repeats_mode(self):
        ref = ReferenceGenerator(repeats=None, seed=0).generate(1000)
        assert len(ref) == 1000


class TestRepeatStructure:
    def test_repeats_reduce_kmer_diversity(self):
        """Repeat planting must make the reference more repetitive."""
        plain = generate_reference(50_000, seed=5, with_repeats=False)
        repeated = generate_reference(50_000, seed=5, with_repeats=True)
        # Equal lengths, so distinct 12-mer counts compare as fractions.
        assert len(KmerIndex.build(repeated, 12)) < len(KmerIndex.build(plain, 12))

    def test_interspersed_copies_exist(self):
        """Some 20-mers must occur many times (the repeat element)."""
        ref = ReferenceGenerator(
            repeats=RepeatProfile(tandem_fraction=0.0,
                                  interspersed_fraction=0.2,
                                  interspersed_divergence=0.0),
            seed=9,
        ).generate(30_000)
        index = KmerIndex.build(ref, 20)
        max_occurrences = max(len(v) for v in index.positions.values())
        assert max_occurrences >= 5
