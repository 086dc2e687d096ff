"""Tests for the Condition A/B dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.genome.datasets import build_dataset, resolve_condition
from repro.genome.edits import ErrorModel


class TestResolveCondition:
    def test_condition_a(self):
        model = resolve_condition("A")
        assert model.substitution == pytest.approx(0.01)

    def test_condition_b_case_insensitive(self):
        model = resolve_condition(" b ")
        assert model.indel_rate == pytest.approx(0.01)

    def test_explicit_model_passthrough(self):
        model = ErrorModel(substitution=0.2)
        assert resolve_condition(model) is model

    def test_unknown_condition(self):
        with pytest.raises(DatasetError):
            resolve_condition("C")


class TestBuildDataset:
    def test_shapes(self, small_dataset_a):
        ds = small_dataset_a
        assert ds.segments.shape == (32, 128)
        assert len(ds.reads) == 24
        assert ds.read_length == 128
        assert ds.n_segments == 32

    def test_segments_tile_reference(self, small_dataset_a):
        ds = small_dataset_a
        for i in range(ds.n_segments):
            expected = ds.reference.codes[i * 128 : (i + 1) * 128]
            assert np.array_equal(ds.segments[i], expected)

    def test_read_origins_on_segment_grid(self, small_dataset_a):
        for record in small_dataset_a.reads:
            assert record.origin % small_dataset_a.read_length == 0

    def test_origin_segment_index(self, small_dataset_a):
        ds = small_dataset_a
        for record in ds.reads:
            index = record.origin // ds.read_length
            assert 0 <= index < ds.n_segments

    def test_deterministic(self):
        a = build_dataset("A", n_reads=4, read_length=64, n_segments=8,
                          seed=33)
        b = build_dataset("A", n_reads=4, read_length=64, n_segments=8,
                          seed=33)
        assert np.array_equal(a.segments, b.segments)
        assert all(x.read == y.read for x, y in zip(a.reads, b.reads, strict=True))

    def test_condition_label_attached(self, small_dataset_b):
        assert small_dataset_b.condition == "B"
        assert small_dataset_b.model.indel_rate == pytest.approx(0.01)

    def test_invalid_counts(self):
        with pytest.raises(DatasetError):
            build_dataset("A", n_reads=0)
        with pytest.raises(DatasetError):
            build_dataset("A", n_segments=0)

    def test_reads_differ_from_clean_segment_under_errors(self):
        """Condition A injects ~1 % substitutions: most reads differ."""
        ds = build_dataset("A", n_reads=32, read_length=256, n_segments=8,
                           seed=11)
        n_identical = sum(
            int(np.array_equal(r.read.codes,
                               ds.segments[r.origin // ds.read_length]))
            for r in ds.reads
        )
        assert n_identical < len(ds.reads) / 2

    def test_segment_accessor(self, small_dataset_a):
        seg = small_dataset_a.segment(3)
        assert np.array_equal(seg.codes, small_dataset_a.segments[3])
