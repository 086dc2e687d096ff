"""Tests for the batched and sharded read-mapping pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import (
    ReadMappingPipeline,
    ShardedReadMappingPipeline,
)
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset


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
            if dataset.origin_segment_index(record) in mapping.matched_rows:
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
        assert report.mean_latency_per_read_ns == pytest.approx(
            report.total_latency_ns / report.n_reads
        )

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


class TestShardedPipeline:
    @pytest.fixture(scope="class")
    def sharded(self, noisy_dataset):
        return ShardedReadMappingPipeline(
            noisy_dataset.segments, noisy_dataset.model, n_shards=4,
            noisy=True, seed=3, chunk_size=7,
        )

    def test_partitions_all_rows(self, sharded, noisy_dataset):
        assert sharded.n_shards == 4
        covered = []
        for start, stop in sharded.shard_ranges:
            covered.extend(range(start, stop))
        assert covered == list(range(noisy_dataset.n_segments))

    def test_run_equals_map_read(self, sharded, noisy_dataset):
        """Scalar wrapper and chunked threaded batch are bit-identical."""
        report = sharded.run(noisy_dataset.reads, threshold=8)
        for index, record in enumerate(noisy_dataset.reads):
            single = sharded.map_read(record, 8, index=index)
            mapping = report.mappings[index]
            assert single.matched_rows == mapping.matched_rows
            assert np.array_equal(single.outcome.decisions,
                                  mapping.outcome.decisions)
            assert single.outcome.n_searches == mapping.outcome.n_searches
            assert single.outcome.energy_joules == pytest.approx(
                mapping.outcome.energy_joules
            )

    def test_global_row_indices(self, sharded, noisy_dataset):
        """Matched rows are reported in whole-reference coordinates."""
        report = sharded.run(noisy_dataset.reads, threshold=8)
        hits = 0
        for record, mapping in zip(noisy_dataset.reads, report.mappings, strict=True):
            origin = noisy_dataset.origin_segment_index(record)
            hits += int(origin in mapping.matched_rows)
        assert hits >= len(noisy_dataset.reads) * 0.8

    def test_matches_unsharded_noiseless(self, noisy_dataset):
        """With noise and strategies off, sharding is purely structural."""
        sharded = ShardedReadMappingPipeline(
            noisy_dataset.segments, noisy_dataset.model, n_shards=3,
            config=MatcherConfig.plain(), noisy=False,
        )
        array = CamArray(rows=noisy_dataset.n_segments,
                         cols=noisy_dataset.read_length, noisy=False)
        array.store(noisy_dataset.segments)
        flat = ReadMappingPipeline(AsmCapMatcher(
            array, noisy_dataset.model, MatcherConfig.plain()
        ))
        sharded_report = sharded.run(noisy_dataset.reads, threshold=8)
        flat_report = flat.run_batched(noisy_dataset.reads, threshold=8)
        for a, b in zip(sharded_report.mappings, flat_report.mappings, strict=True):
            assert a.matched_rows == b.matched_rows

    def test_more_shards_than_rows(self, noisy_dataset):
        pipeline = ShardedReadMappingPipeline(
            noisy_dataset.segments[:3], noisy_dataset.model, n_shards=8,
            noisy=False,
        )
        assert pipeline.n_shards == 3
        report = pipeline.run(noisy_dataset.reads, threshold=8)
        assert report.n_reads == len(noisy_dataset.reads)

    def test_latency_is_shard_max_energy_is_sum(self, sharded,
                                                noisy_dataset):
        report = sharded.run(noisy_dataset.reads[:4], threshold=8)
        search_time = sharded.matchers[0].array.search_time_ns
        for mapping in report.mappings:
            # Latency counts one shard's (parallel) search chain...
            assert mapping.outcome.latency_ns <= (
                mapping.outcome.n_searches * search_time
            )
            # ...while n_searches/energy sum over every shard.
            assert mapping.outcome.n_searches >= sharded.n_shards

    def test_empty_batch(self, sharded):
        assert sharded.run([], threshold=4).n_reads == 0

    def test_invalid_configs(self, noisy_dataset):
        with pytest.raises(CamConfigError):
            ShardedReadMappingPipeline(
                np.zeros((0, 8), dtype=np.uint8), noisy_dataset.model
            )
        with pytest.raises(CamConfigError):
            ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, chunk_size=0
            )

    def test_max_workers_zero_rejected(self, noisy_dataset):
        """Regression: max_workers=0 used to be swallowed into the
        autotune fallback by a falsy `or`; it must raise like
        chunk_size<=0 does (0 is a mistake, None requests autotune)."""
        for bad in (0, -2):
            with pytest.raises(CamConfigError):
                ShardedReadMappingPipeline(
                    noisy_dataset.segments, noisy_dataset.model,
                    n_shards=2, max_workers=bad,
                )
        autotuned = ShardedReadMappingPipeline(
            noisy_dataset.segments, noisy_dataset.model, n_shards=2,
            max_workers=None, noisy=False,
        )
        assert autotuned.max_workers >= 1

    def test_executor_persists_across_runs(self, noisy_dataset):
        """Regression: run() used to build and tear down a
        ThreadPoolExecutor per call; the pipeline must reuse one
        persistent pool across runs and release it on close()."""
        pipeline = ShardedReadMappingPipeline(
            noisy_dataset.segments, noisy_dataset.model, n_shards=2,
            noisy=False, seed=3,
        )
        assert pipeline.owns_executor
        assert pipeline._pool is None  # lazy until the first run
        pipeline.run(noisy_dataset.reads[:3], threshold=8)
        pool = pipeline._pool
        assert pool is not None
        pipeline.run(noisy_dataset.reads[3:6], threshold=8)
        assert pipeline._pool is pool
        pipeline.close()
        assert pipeline._pool is None
        pipeline.close()  # idempotent
        # The pipeline stays usable: a later run re-creates the pool.
        report = pipeline.run(noisy_dataset.reads[:2], threshold=8)
        assert report.n_reads == 2
        assert pipeline._pool is not None and pipeline._pool is not pool
        pipeline.close()

    def test_context_manager_closes_executor(self, noisy_dataset):
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=2,
                noisy=False) as pipeline:
            pipeline.run(noisy_dataset.reads[:2], threshold=8)
            assert pipeline._pool is not None
        assert pipeline._pool is None

    def test_injected_executor_is_shared_not_owned(self, noisy_dataset):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as executor:
            pipeline = ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=2,
                noisy=False, executor=executor,
            )
            assert not pipeline.owns_executor
            report = pipeline.run(noisy_dataset.reads[:3], threshold=8)
            assert report.n_reads == 3
            pipeline.close()  # must NOT shut the injected executor down
            assert executor.submit(lambda: 42).result() == 42


class TestStoredShardConstruction:
    def test_stored_shards_bit_identical_to_segments(self, noisy_dataset):
        """A pipeline over pre-encoded shard references reproduces the
        segment-matrix construction exactly (same seeds, same ranges,
        same decisions and costs) — encode once, build many."""
        from repro.core.pipeline import encode_shard_references

        reference = ShardedReadMappingPipeline(
            noisy_dataset.segments, noisy_dataset.model, n_shards=3,
            noisy=True, seed=5, chunk_size=7,
        )
        shards, chunk = encode_shard_references(
            noisy_dataset.segments, n_shards=3, chunk_size=7
        )
        shared = ShardedReadMappingPipeline(
            shards, noisy_dataset.model, n_shards=None, noisy=True,
            seed=5, chunk_size=chunk,
        )
        assert shared.n_shards == reference.n_shards
        assert shared.shard_ranges == reference.shard_ranges
        ours = shared.run(noisy_dataset.reads, threshold=8)
        theirs = reference.run(noisy_dataset.reads, threshold=8)
        assert ours.total_energy_joules == theirs.total_energy_joules
        for a, b in zip(ours.mappings, theirs.mappings, strict=True):
            assert a.matched_rows == b.matched_rows
            assert a.outcome.energy_joules == b.outcome.energy_joules
            assert a.outcome.latency_ns == b.outcome.latency_ns
        # Every pipeline built from the same shards shares the encode.
        assert sum(s.n_encodes for s in shards) == len(shards)
        another = ShardedReadMappingPipeline(
            shards, noisy_dataset.model, n_shards=None, seed=5,
            chunk_size=chunk,
        )
        another.run(noisy_dataset.reads[:2], threshold=8)
        assert sum(s.n_encodes for s in shards) == len(shards)

    @pytest.mark.parametrize("route", ["segments", "encoded", "sliced",
                                       "mapped"])
    def test_merged_ledger_on_every_route(self, noisy_dataset, route,
                                          tmp_path):
        """Without compaction, every construction route keeps the full
        event streams, so the merged ledger's fold matches
        merged_stats() and its pass counts match the observability
        fold."""
        from repro.cam.array import StoredReference
        from repro.core.pipeline import encode_shard_references
        from repro.cost.views import search_stats
        from repro.refstore import (
            open_stored_reference,
            save_stored_reference,
            slice_stored_reference,
        )

        segments, model = noisy_dataset.segments, noisy_dataset.model
        ranges = ShardedReadMappingPipeline(
            segments, model, n_shards=3).shard_ranges
        mapped = None
        if route == "segments":
            source = segments
        elif route == "encoded":
            source, _ = encode_shard_references(segments, n_shards=3)
        elif route == "sliced":
            source = slice_stored_reference(
                StoredReference.encode(segments), ranges)
        else:
            path = tmp_path / "ref.asmcap"
            save_stored_reference(path, StoredReference.encode(segments))
            mapped = open_stored_reference(path)
            source = slice_stored_reference(mapped.reference, ranges)
        try:
            with ShardedReadMappingPipeline(
                    source, model, n_shards=3, seed=5,
                    chunk_size=7) as pipeline:
                pipeline.run(noisy_dataset.reads, threshold=8)
                merged = pipeline.merged_ledger()
                stats = pipeline.merged_stats()
                pass_counts = pipeline.ledger_observability()[0]
        finally:
            if mapped is not None:
                mapped.close()
        assert merged.pass_counts() == pass_counts
        folded = search_stats(merged)
        assert folded.n_searches == stats.n_searches > 0
        assert folded.total_energy_joules == pytest.approx(
            stats.total_energy_joules, rel=1e-12)

    def test_stored_shard_count_conflict_rejected(self, noisy_dataset):
        from repro.core.pipeline import encode_shard_references

        shards, _ = encode_shard_references(noisy_dataset.segments,
                                            n_shards=3)
        with pytest.raises(CamConfigError):
            ShardedReadMappingPipeline(shards, noisy_dataset.model,
                                       n_shards=2)

    @pytest.mark.slow
    def test_sharded_stress_10k_reads(self):
        """Nightly lane: a 10k-read workload across 4 shards."""
        dataset = build_dataset("A", n_reads=64, read_length=64,
                                n_segments=64, seed=77)
        rng = np.random.default_rng(78)
        reads = rng.integers(0, 4, (10_000, 64)).astype(np.uint8)
        # Seed some true positives among the random reads.
        reads[::100] = dataset.segments[rng.integers(0, 64, 100)]
        pipeline = ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=4, noisy=True,
            seed=1,
        )
        report = pipeline.run(reads, threshold=6)
        assert report.n_reads == 10_000
        assert report.n_mapped >= 100  # every seeded copy must map
        for probe in (0, 1_234, 9_999):
            single = pipeline.map_read(reads[probe], 6, index=probe)
            assert single.matched_rows == \
                report.mappings[probe].matched_rows
