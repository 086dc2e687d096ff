"""Tests for the batched read-mapping pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset
from repro.genome.edits import ErrorModel


@pytest.fixture(scope="module")
def pipeline_and_dataset():
    dataset = build_dataset("A", n_reads=16, read_length=128, n_segments=16,
                            seed=60)
    array = CamArray(rows=16, cols=128, domain="charge", noisy=False)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=0)
    return ReadMappingPipeline(matcher), dataset


class TestMapping:
    def test_maps_most_reads_to_origin(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        report = pipeline.run_batched(dataset.reads, threshold=8)
        assert report.n_reads == 16
        assert report.mapped_fraction >= 0.8
        hits = 0
        for record, mapping in zip(dataset.reads, report.mappings, strict=True):
            if record.origin // dataset.read_length in mapping.matched_rows:
                hits += 1
        assert hits >= 13

    def test_unique_fraction_bounded(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        report = pipeline.run_batched(dataset.reads, threshold=8)
        assert 0.0 <= report.unique_fraction <= report.mapped_fraction

    def test_aggregates_consistent(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        report = pipeline.run_batched(dataset.reads, threshold=4)
        assert report.n_searches == sum(
            m.outcome.n_searches for m in report.mappings
        )
        assert report.total_energy_joules == pytest.approx(sum(
            m.outcome.energy_joules for m in report.mappings
        ))
        assert report.total_latency_ns == pytest.approx(sum(
            m.outcome.latency_ns for m in report.mappings
        ))

    def test_throughput_positive(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        report = pipeline.run_batched(dataset.reads, threshold=4)
        assert report.reads_per_second > 0

    def test_accepts_raw_code_arrays(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        raw = [record.read.codes for record in dataset.reads[:3]]
        report = pipeline.run_batched(raw, threshold=4)
        assert report.n_reads == 3

    def test_empty_batch_yields_empty_report(self, pipeline_and_dataset):
        """An empty batch is a valid degenerate streaming input."""
        pipeline, _ = pipeline_and_dataset
        report = pipeline.run_batched([], threshold=4)
        assert report.n_reads == 0
        assert report.mappings == []
        assert report.mapped_fraction == 0.0
        assert report.reads_per_second == 0.0

    def test_map_read_indices(self, pipeline_and_dataset):
        pipeline, dataset = pipeline_and_dataset
        mapping = pipeline.run_batched(dataset.reads[:1], threshold=8,
                                       first_read_index=7).mappings[0]
        assert mapping.read_index == 7
        assert all(0 <= row < 16 for row in mapping.matched_rows)

    def test_mismatched_read_widths_rejected(self, pipeline_and_dataset):
        pipeline, _ = pipeline_and_dataset
        ragged = [np.zeros(128, dtype=np.uint8), np.zeros(64, dtype=np.uint8)]
        with pytest.raises(CamConfigError):
            pipeline.run_batched(ragged, threshold=4)


@pytest.fixture(scope="module")
def noisy_dataset():
    return build_dataset("A", n_reads=24, read_length=128, n_segments=32,
                         seed=61)


def make_noisy_pipeline(dataset, seed=9):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=seed)
    return ReadMappingPipeline(matcher)


class TestBatchedPipeline:
    def test_batched_equals_keyed_scalar_loop(self, noisy_dataset):
        """run_batched must be bit-identical to the keyed scalar path."""
        pipeline = make_noisy_pipeline(noisy_dataset)
        batched = pipeline.run_batched(noisy_dataset.reads, threshold=8)
        for index, record in enumerate(noisy_dataset.reads):
            outcome = pipeline.matcher.match(record.read.codes, 8,
                                             query_key=index)
            mapping = batched.mappings[index]
            assert np.array_equal(mapping.outcome.decisions,
                                  outcome.decisions)
            assert mapping.outcome.n_searches == outcome.n_searches
            assert mapping.outcome.energy_joules == pytest.approx(
                outcome.energy_joules
            )

    def test_batched_aggregates_consistent(self, noisy_dataset):
        pipeline = make_noisy_pipeline(noisy_dataset)
        report = pipeline.run_batched(noisy_dataset.reads, threshold=8)
        assert report.n_reads == len(noisy_dataset.reads)
        assert report.n_searches == sum(
            m.outcome.n_searches for m in report.mappings
        )
        assert report.total_energy_joules == pytest.approx(sum(
            m.outcome.energy_joules for m in report.mappings
        ))

    def test_batched_empty_batch(self, noisy_dataset):
        pipeline = make_noisy_pipeline(noisy_dataset)
        assert pipeline.run_batched([], threshold=4).n_reads == 0

    def test_batched_is_deterministic(self, noisy_dataset):
        a = make_noisy_pipeline(noisy_dataset, seed=5)
        b = make_noisy_pipeline(noisy_dataset, seed=5)
        ra = a.run_batched(noisy_dataset.reads, threshold=8)
        rb = b.run_batched(noisy_dataset.reads, threshold=8)
        for ma, mb in zip(ra.mappings, rb.mappings, strict=True):
            assert ma.matched_rows == mb.matched_rows


#: Substitutions per near-threshold read, and the threshold they are
#: searched at: the read sits at the sense-amp boundary of its origin
#: row.
NEAR_EDITS, NEAR_THRESHOLD = 8, 4


@pytest.fixture(scope="module")
def near_threshold_reads():
    """24 reads, each ``NEAR_EDITS`` substitutions from one of 32 rows."""
    rng = np.random.default_rng(7)
    segments = rng.integers(0, 4, (32, 64)).astype(np.uint8)
    reads = segments[np.arange(24) % 32].copy()
    for read in reads:
        cells = rng.choice(64, NEAR_EDITS, replace=False)
        read[cells] = (read[cells] + rng.integers(1, 4, NEAR_EDITS)) % 4
    return segments, reads


def make_key_sensitive_pipeline(segments, seed=6):
    """A wide-variation array: the keyed noise decides the reads'
    boundary rows, so a read keyed as another read can decide
    differently."""
    array = CamArray(rows=segments.shape[0], cols=segments.shape[1],
                     noisy=True, seed=seed, sigma_rel=0.3)
    array.store(segments)
    model = ErrorModel(substitution=0.02, insertion=0.01, deletion=0.01)
    return ReadMappingPipeline(AsmCapMatcher(array, model, seed=seed))


class TestKeyedOffsets:
    """``first_read_index`` is the determinism anchor of incremental
    execution: read ``i`` of a call at offset ``k`` is global read
    ``k + i`` for every draw."""

    def test_workload_is_key_sensitive(self, near_threshold_reads):
        segments, reads = near_threshold_reads
        pipeline = make_key_sensitive_pipeline(segments)
        whole = pipeline.run_batched(reads, NEAR_THRESHOLD)
        shifted = pipeline.run_batched(reads, NEAR_THRESHOLD,
                                       first_read_index=1)
        assert [m.matched_rows for m in shifted.mappings] != \
            [m.matched_rows for m in whole.mappings]

    @pytest.mark.parametrize("split", [1, 8, 23])
    def test_offset_calls_compose_to_one_call(self, near_threshold_reads,
                                              split):
        """Two calls whose ``first_read_index`` offsets tile the
        workload equal one call over all of it: read indices, matched
        rows, decisions and per-read energy and latency, exactly."""
        segments, reads = near_threshold_reads
        whole = make_key_sensitive_pipeline(segments).run_batched(
            reads, NEAR_THRESHOLD)
        streamed = make_key_sensitive_pipeline(segments)
        head = streamed.run_batched(reads[:split], NEAR_THRESHOLD)
        tail = streamed.run_batched(reads[split:], NEAR_THRESHOLD,
                                    first_read_index=split)
        parts = head.mappings + tail.mappings
        assert [m.read_index for m in parts] == list(range(len(reads)))
        assert parts == whole.mappings

    def test_one_read_call_equals_its_row_of_the_whole_call(
            self, near_threshold_reads):
        """A one-read call at offset ``i`` is row ``i`` of the whole
        call, whatever the pipeline ran before it."""
        segments, reads = near_threshold_reads
        pipeline = make_key_sensitive_pipeline(segments)
        whole = pipeline.run_batched(reads, NEAR_THRESHOLD)
        for index in reversed(range(len(reads))):
            single = pipeline.run_batched(
                reads[index:index + 1], NEAR_THRESHOLD,
                first_read_index=index)
            assert single.mappings == [whole.mappings[index]]
