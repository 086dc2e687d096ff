"""Tests for the batched and sharded read-mapping pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import (
    ReadMappingPipeline,
    ShardedReadMappingPipeline,
    bank_row_ranges,
)
from repro.errors import ArchConfigError, CamConfigError
from repro.genome import alphabet
from repro.genome.datasets import build_dataset


@pytest.fixture(scope="module")
def pipeline_and_dataset():
    dataset = build_dataset("A", n_reads=16, read_length=128, n_segments=16,
                            seed=60)
    array = CamArray(rows=16, cols=128, domain="charge", noisy=False)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=0)
    return ReadMappingPipeline(matcher), dataset


class TestBankRowRanges:
    def test_even_split_covers_all_rows(self):
        ranges = bank_row_ranges(100, 4)
        assert ranges == ((0, 25), (25, 50), (50, 75), (75, 100))

    def test_uneven_split_balances_within_one_row(self):
        ranges = bank_row_ranges(10, 4)
        assert ranges == ((0, 3), (3, 6), (6, 8), (8, 10))
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_all_requested_banks_used_when_possible(self):
        ranges = bank_row_ranges(9, 8)
        assert len(ranges) == 8
        sizes = [stop - start for start, stop in ranges]
        assert sorted(sizes, reverse=True) == [2, 1, 1, 1, 1, 1, 1, 1]

    def test_more_banks_than_rows_drops_empty_banks(self):
        ranges = bank_row_ranges(3, 8)
        assert ranges == ((0, 1), (1, 2), (2, 3))

    def test_invalid_arguments(self):
        with pytest.raises(ArchConfigError):
            bank_row_ranges(0, 4)
        with pytest.raises(ArchConfigError):
            bank_row_ranges(10, 0)

    @pytest.mark.parametrize("n_rows,n_banks", [(-1, 4), (10, -3)])
    def test_negative_arguments_rejected(self, n_rows, n_banks):
        with pytest.raises(ArchConfigError):
            bank_row_ranges(n_rows, n_banks)

    @pytest.mark.parametrize("n_rows,n_banks", [
        (1, 1), (1, 4), (7, 3), (16, 16), (17, 16), (31, 4), (100, 7),
        (255, 256), (1000, 3), (4096, 512),
    ])
    def test_partition_invariants(self, n_rows, n_banks):
        """Contiguous, in bank order, covering every row once, one bank
        per row at most, and balanced within one row."""
        ranges = bank_row_ranges(n_rows, n_banks)
        assert len(ranges) == min(n_rows, n_banks)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_rows
        for (_, stop), (start, _) in zip(ranges, ranges[1:], strict=False):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        # Larger banks come first.
        assert sizes == sorted(sizes, reverse=True)

    def test_paper_system_gives_each_bank_one_full_array(self):
        """Fig. 4(a): 512 arrays of 256 rows hold 512 x 256 segments."""
        n_rows = constants.ARRAY_COUNT * constants.ARRAY_ROWS
        ranges = bank_row_ranges(n_rows, constants.ARRAY_COUNT)
        assert len(ranges) == constants.ARRAY_COUNT
        assert {stop - start for start, stop in ranges} == {
            constants.ARRAY_ROWS}


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

    def test_stored_references_rejected_with_a_typed_error(
            self, noisy_dataset):
        """The pipeline takes only a segment matrix: a stored
        reference, or a sequence of them, raises a typed error."""
        from repro.cam.array import StoredReference

        shard = StoredReference.encode(noisy_dataset.segments)
        for source in (shard, (shard, shard)):
            with pytest.raises(CamConfigError, match="segments must be"):
                ShardedReadMappingPipeline(source, noisy_dataset.model)

    @pytest.mark.parametrize("n_shards", [0, -1])
    def test_nonpositive_n_shards_names_the_knob(self, noisy_dataset,
                                                 n_shards):
        with pytest.raises(CamConfigError,
                           match=f"n_shards must be positive, got "
                                 f"{n_shards}"):
            ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model,
                n_shards=n_shards)

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


def make_flat_plain_pipeline(dataset):
    """One noiseless array holding the whole reference, no strategies."""
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     noisy=False)
    array.store(dataset.segments)
    return ReadMappingPipeline(AsmCapMatcher(
        array, dataset.model, MatcherConfig.plain()
    ))


class TestShardedSystem:
    """The banked system model of Fig. 4(a): rows spread over arrays,
    every read broadcast to all of them, results in global rows."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_segments_distributed(self, noisy_dataset, n_shards):
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model,
                n_shards=n_shards, noisy=False) as pipeline:
            assert pipeline.shard_ranges == bank_row_ranges(
                noisy_dataset.n_segments, n_shards)
            for matcher, (start, stop) in zip(pipeline.matchers,
                                              pipeline.shard_ranges,
                                              strict=True):
                assert np.array_equal(matcher.array.stored_segments(),
                                      noisy_dataset.segments[start:stop])

    @pytest.mark.parametrize("n_shards", [1, 2, 5, 8, 32])
    def test_agrees_with_single_array_at_any_bank_count(self,
                                                        noisy_dataset,
                                                        n_shards):
        """Noiseless and strategy-free, the bank count changes nothing
        the reads see: rows, per-read energy and per-read latency all
        equal one array holding the whole reference."""
        flat = make_flat_plain_pipeline(noisy_dataset).run_batched(
            noisy_dataset.reads, threshold=8)
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model,
                n_shards=n_shards, config=MatcherConfig.plain(),
                noisy=False) as pipeline:
            report = pipeline.run(noisy_dataset.reads, threshold=8)
        for a, b in zip(report.mappings, flat.mappings, strict=True):
            assert a.matched_rows == b.matched_rows
            # Energy sums over banks, latency is one bank's search.
            assert a.outcome.energy_joules == pytest.approx(
                b.outcome.energy_joules, rel=1e-12)
            assert a.outcome.latency_ns == b.outcome.latency_ns

    def test_wrong_read_width_rejected(self, sharded_plain, noisy_dataset):
        wide = np.zeros((2, noisy_dataset.read_length + 1), dtype=np.uint8)
        with pytest.raises(CamConfigError):
            sharded_plain.run(wide, threshold=8)
        with pytest.raises(CamConfigError):
            sharded_plain.map_read(wide[0], 8)

    @pytest.mark.parametrize("chunk_size", [3, 24, 100])
    def test_one_batched_pass_per_chunk_per_shard(self, noisy_dataset,
                                                  chunk_size):
        """Each shard sees one batched search per chunk, not one
        search per read, and the buffer broadcasts each chunk once."""
        from repro.cost.events import BufferBroadcast

        n_reads = len(noisy_dataset.reads)
        n_chunks = -(-n_reads // chunk_size)
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=3,
                config=MatcherConfig.plain(), noisy=False,
                chunk_size=chunk_size) as pipeline:
            pipeline.run(noisy_dataset.reads, threshold=8)
            for matcher in pipeline.matchers:
                passes = matcher.array.ledger.search_passes()
                assert len(passes) == n_chunks
                assert sum(p.n_queries for p in passes) == n_reads
            broadcasts = pipeline.ledger.of_type(BufferBroadcast)
        assert len(broadcasts) == n_chunks
        assert sum(b.n_reads for b in broadcasts) == n_reads
        assert {b.read_bits for b in broadcasts} == {
            noisy_dataset.read_length * alphabet.BITS_PER_BASE}

    @pytest.mark.parametrize("chunk_size", [1, 5, 24])
    def test_chunk_size_leaves_no_trace(self, noisy_dataset, chunk_size):
        """Noisy, strategies on: chunk boundaries change neither the
        decisions nor the per-read costs."""
        def run(chunk):
            with ShardedReadMappingPipeline(
                    noisy_dataset.segments, noisy_dataset.model,
                    n_shards=3, noisy=True, seed=4,
                    chunk_size=chunk) as pipeline:
                return pipeline.run(noisy_dataset.reads, threshold=8)

        whole, chunked = run(4096), run(chunk_size)
        for a, b in zip(chunked.mappings, whole.mappings, strict=True):
            assert a.matched_rows == b.matched_rows
            assert a.outcome.n_searches == b.outcome.n_searches
            assert a.outcome.energy_joules == b.outcome.energy_joules
            assert a.outcome.latency_ns == b.outcome.latency_ns

    @pytest.mark.parametrize("split", [1, 8, 23])
    def test_offset_calls_compose_to_one_call(self, noisy_dataset, split):
        """Two calls whose ``first_read_index`` offsets tile the
        workload equal one call over all of it."""
        def pipeline():
            return ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=2,
                noisy=True, seed=6, chunk_size=5)

        reads = noisy_dataset.reads
        with pipeline() as whole_pipeline:
            whole = whole_pipeline.run(reads, threshold=8)
        with pipeline() as streamed:
            head = streamed.run(reads[:split], threshold=8)
            tail = streamed.run(reads[split:], threshold=8,
                                first_read_index=split)
        parts = head.mappings + tail.mappings
        assert [m.read_index for m in parts] == list(range(len(reads)))
        for a, b in zip(parts, whole.mappings, strict=True):
            assert a.matched_rows == b.matched_rows
            assert a.outcome.energy_joules == b.outcome.energy_joules

    def test_report_energy_equals_shard_ledgers(self, noisy_dataset):
        """The report's energy is the sum of every bank's search
        passes as recorded in the shard ledgers."""
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=3,
                noisy=True, seed=2) as pipeline:
            report = pipeline.run(noisy_dataset.reads, threshold=8)
            stats = pipeline.merged_stats()
        assert stats.n_searches == report.n_searches
        assert stats.total_energy_joules == pytest.approx(
            report.total_energy_joules, rel=1e-12)

    @pytest.fixture
    def sharded_plain(self, noisy_dataset):
        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=3,
                config=MatcherConfig.plain(), noisy=False) as pipeline:
            yield pipeline

    def test_merged_ledger_matches_merged_stats(self, noisy_dataset):
        """Without compaction the full event streams are kept, so the
        merged ledger's fold matches merged_stats() and its pass counts
        match the observability fold."""
        from repro.cost.views import search_stats

        with ShardedReadMappingPipeline(
                noisy_dataset.segments, noisy_dataset.model, n_shards=3,
                seed=5, chunk_size=7) as pipeline:
            pipeline.run(noisy_dataset.reads, threshold=8)
            merged = pipeline.merged_ledger()
            stats = pipeline.merged_stats()
            pass_counts = pipeline.ledger_observability()[0]
        assert merged.pass_counts() == pass_counts
        folded = search_stats(merged)
        assert folded.n_searches == stats.n_searches > 0
        assert folded.total_energy_joules == pytest.approx(
            stats.total_energy_joules, rel=1e-12)

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
