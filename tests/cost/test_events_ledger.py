"""Unit tests for the cost-event taxonomy and the ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cost.events import (
    BufferBroadcast,
    EdStarPass,
    HdacPass,
    ReferenceLoad,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.views import search_pass_energy_per_query, search_stats


@pytest.fixture
def small_array(rng):
    array = CamArray(rows=8, cols=16, domain="charge", noisy=False, seed=3)
    array.store(rng.integers(0, 4, (8, 16)).astype(np.uint8))
    return array


class TestEventEmission:
    def test_store_emits_reference_load(self, small_array):
        loads = small_array.ledger.of_type(ReferenceLoad)
        assert len(loads) == 1
        assert loads[0].n_segments == 8
        assert loads[0].n_cells == 16
        assert loads[0].n_bases == 128

    def test_restore_records_rows_written_by_that_call(self, small_array,
                                                       rng):
        small_array.store(rng.integers(0, 4, (2, 16)).astype(np.uint8))
        loads = small_array.ledger.of_type(ReferenceLoad)
        assert [load.n_segments for load in loads] == [8, 2]

    def test_sharded_merged_ledger_counts_loads_once(self, rng):
        from repro.core.pipeline import ShardedReadMappingPipeline
        from repro.genome.edits import ErrorModel

        segments = rng.integers(0, 4, (12, 16)).astype(np.uint8)
        with ShardedReadMappingPipeline(
                segments, ErrorModel.condition_a(), n_shards=2,
                noisy=False) as pipeline:
            pipeline.map_read(segments[0], 2)
            merged = pipeline.merged_ledger()
        loads = merged.of_type(ReferenceLoad)
        assert sum(load.n_segments for load in loads) == 12
        # Both shards' search passes are merged in, after the broadcast.
        assert len(merged.search_passes()) >= 2
        assert isinstance(merged.events[0], BufferBroadcast)

    def test_scalar_search_emits_ed_star_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        passes = small_array.ledger.search_passes()
        assert len(passes) == 1
        event = passes[0]
        assert isinstance(event, EdStarPass)
        assert event.mode == "ed_star"
        assert event.n_queries == 1
        assert event.n_rows == 8
        assert event.shift_cycles == 0
        assert event.covers_threshold(4)
        assert not event.covers_threshold(5)

    def test_hamming_search_emits_hdac_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4, MatchMode.HAMMING)
        event = small_array.ledger.search_passes()[0]
        assert isinstance(event, HdacPass)
        assert event.mode == "hamming"

    def test_rotated_search_emits_rotation_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(np.roll(read, -2)[None, :], 4, rotation=2)
        event = small_array.ledger.search_passes()[0]
        assert isinstance(event, TasrRotationPass)
        assert event.rotation == 2
        assert event.shift_cycles == 2

    def test_batch_rotation_pass_scales_shift_cycles(self, small_array, rng):
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        small_array.search_batch(queries, 4, rotation=-3)
        event = small_array.ledger.search_passes()[0]
        assert isinstance(event, TasrRotationPass)
        assert event.shift_cycles == 3 * 5

    def test_sweep_pass_records_sweep_vector(self, small_array, rng):
        queries = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        small_array.search_sweep(queries, np.array([1, 4, 9]))
        event = small_array.ledger.search_passes()[0]
        assert event.sweep
        assert event.n_queries == 3
        assert event.covers_threshold(4)
        assert not event.covers_threshold(3)

    def test_event_energy_view_matches_result(self, small_array, rng):
        queries = rng.integers(0, 4, (4, 16)).astype(np.uint8)
        result = small_array.search_batch(queries, 4)
        event = small_array.ledger.search_passes()[-1]
        assert np.array_equal(search_pass_energy_per_query(event),
                              result.energy_per_query_joules)
        assert event.energy_joules == result.energy_joules
        assert event.latency_ns == result.latency_ns


class TestLedger:
    def test_order_preserved(self):
        ledger = CostLedger()
        first = ledger.record(ReferenceLoad(n_segments=1, n_cells=4))
        second = ledger.record(BufferBroadcast(n_reads=2, read_bits=8))
        assert ledger.events == (first, second)
        assert len(ledger) == 2
        assert list(ledger) == [first, second]

    def test_of_type_and_search_passes(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        assert len(small_array.ledger.of_type(ReferenceLoad)) == 1
        assert len(small_array.ledger.search_passes()) == 1
        assert all(isinstance(e, SearchPassEvent)
                   for e in small_array.ledger.search_passes())

    def test_merged_preserves_input_order(self):
        a = CostLedger([ReferenceLoad(n_segments=1, n_cells=4)])
        b = CostLedger([BufferBroadcast(n_reads=1, read_bits=8)])
        merged = CostLedger.merged(a, b)
        assert merged.events == a.events + b.events

    def test_clear(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        small_array.ledger.clear()
        assert len(small_array.ledger) == 0
        assert small_array.stats.n_searches == 0

    def test_broadcast_totals(self):
        event = BufferBroadcast(n_reads=3, read_bits=512)
        assert event.total_bits == 3 * 512


class TestStatsView:
    def test_stats_counts_physical_passes(self, small_array, rng):
        queries = rng.integers(0, 4, (4, 16)).astype(np.uint8)
        small_array.search_sweep(queries, np.array([1, 2, 3, 4, 5]))
        stats = small_array.stats
        # A sweep costs one pass per query, not one per (T, query).
        assert stats.n_searches == 4
        assert stats.total_latency_ns == pytest.approx(
            4 * constants.ASMCAP_SEARCH_TIME_NS
        )

    def test_stats_accumulate_in_event_order(self, small_array, rng):
        reads = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        for i, read in enumerate(reads):
            small_array.search_batch(read[None, :], 4)
            small_array.search_batch(np.roll(read, -i)[None, :], 4, rotation=i)
        stats = small_array.stats
        assert stats.n_searches == 6
        assert stats.n_rotation_cycles == 0 + 1 + 2
        total = 0.0
        for event in small_array.ledger.search_passes():
            total += event.energy_joules
        assert stats.total_energy_joules == total

    def test_stats_view_matches_manual_recompute(self, small_array, rng):
        queries = rng.integers(0, 4, (6, 16)).astype(np.uint8)
        small_array.search_batch(queries, 3)
        small_array.search_batch(queries, 7, MatchMode.HAMMING)
        stats = search_stats(small_array.ledger)
        assert stats.n_searches == 12
        expected = sum(e.energy_joules
                       for e in small_array.ledger.search_passes())
        assert stats.total_energy_joules == pytest.approx(expected)
