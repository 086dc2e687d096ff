"""Tests for the synthetic reference generator."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError
from repro.genome.generator import ReferenceGenerator, generate_reference
from repro.genome.kmer import KmerIndex


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
        ref = ReferenceGenerator(repeats=False, seed=0).generate(1000)
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
        ref = ReferenceGenerator(seed=9).generate(30_000)
        index = KmerIndex.build(ref, 20)
        max_occurrences = max(len(v) for v in index.positions.values())
        assert max_occurrences >= 5
