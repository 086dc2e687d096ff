"""Unit tests for the cost-event taxonomy and the ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cost.events import (
    EdStarPass,
    HdacPass,
    ReferenceLoad,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.views import (
    component_energies,
    search_pass_energy_per_query,
    search_stats,
)
from repro.errors import CamConfigError
from oracles import search_passes


@pytest.fixture
def small_array(rng):
    array = CamArray(rows=8, cols=16, domain="charge", noisy=False, seed=3)
    array.store(rng.integers(0, 4, (8, 16)).astype(np.uint8))
    return array


class TestEventEmission:
    def test_store_emits_reference_load(self, small_array):
        loads = [e for e in small_array.ledger.events if isinstance(e, ReferenceLoad)]
        assert len(loads) == 1
        assert loads[0].n_segments == 8
        assert loads[0].n_cells == 16
        assert loads[0].n_bases == 128

    def test_restore_records_rows_written_by_that_call(self, small_array,
                                                       rng):
        small_array.store(rng.integers(0, 4, (2, 16)).astype(np.uint8))
        loads = [e for e in small_array.ledger.events if isinstance(e, ReferenceLoad)]
        assert [load.n_segments for load in loads] == [8, 2]

    def test_scalar_search_emits_ed_star_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        passes = search_passes(small_array.ledger)
        assert len(passes) == 1
        event = passes[0]
        assert isinstance(event, EdStarPass)
        assert event.mode == "ed_star"
        assert event.n_queries == 1
        assert event.n_rows == 8
        assert event.shift_cycles == 0
        assert event.thresholds.tolist() == [4]

    def test_hamming_search_emits_hdac_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4, MatchMode.HAMMING)
        event = search_passes(small_array.ledger)[0]
        assert isinstance(event, HdacPass)
        assert event.mode == "hamming"

    def test_rotated_search_emits_rotation_pass(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(np.roll(read, -2)[None, :], 4, rotation=2)
        event = search_passes(small_array.ledger)[0]
        assert isinstance(event, TasrRotationPass)
        assert event.rotation == 2
        assert event.shift_cycles == 2

    def test_batch_rotation_pass_scales_shift_cycles(self, small_array, rng):
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        small_array.search_batch(queries, 4, rotation=-3)
        event = search_passes(small_array.ledger)[0]
        assert isinstance(event, TasrRotationPass)
        assert event.shift_cycles == 3 * 5

    def test_sweep_pass_records_sweep_vector(self, small_array, rng):
        queries = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        small_array.search_sweep(queries, np.array([1, 4, 9]))
        event = search_passes(small_array.ledger)[0]
        assert event.n_queries == 3
        assert event.thresholds.tolist() == [1, 4, 9]

    def test_batch_pass_records_its_one_threshold(self, small_array, rng):
        """A batch's event holds the ``(1,)`` vector it was decided
        against, not a ``(B,)`` broadcast."""
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        small_array.search_batch(queries, 6, mode=(MatchMode.ED_STAR,) * 2,
                                 noise_keys=[None, None], rotation=(0, 1))
        for event in search_passes(small_array.ledger):
            assert event.n_queries == 5
            assert event.thresholds.tolist() == [6]

    def test_event_energy_view_matches_result(self, small_array, rng):
        queries = rng.integers(0, 4, (4, 16)).astype(np.uint8)
        result = small_array.search_batch(queries, 4)
        event = search_passes(small_array.ledger)[-1]
        assert np.array_equal(search_pass_energy_per_query(event),
                              result.energy_per_query_joules)
        assert event.energy_joules == result.energy_joules
        assert event.latency_ns == result.latency_ns


class TestLedger:
    def test_order_preserved(self):
        ledger = CostLedger()
        first = ledger.record(ReferenceLoad(n_segments=1, n_cells=4))
        second = ledger.record(ReferenceLoad(n_segments=2, n_cells=8))
        assert ledger.events == (first, second)
        assert len(ledger) == 2
        assert list(ledger) == [first, second]

    def test_of_type_and_search_passes(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        events = small_array.ledger.events
        assert [type(event) for event in events] == [ReferenceLoad, EdStarPass]
        assert search_passes(small_array.ledger) == events[1:]

    def test_clear(self, small_array, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        small_array.ledger.clear()
        assert len(small_array.ledger) == 0
        assert small_array.stats.n_searches == 0


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
        for event in search_passes(small_array.ledger):
            total += event.energy_joules
        assert stats.total_energy_joules == total

    def test_stats_view_matches_manual_recompute(self, small_array, rng):
        queries = rng.integers(0, 4, (6, 16)).astype(np.uint8)
        small_array.search_batch(queries, 3)
        small_array.search_batch(queries, 7, MatchMode.HAMMING)
        stats = search_stats(small_array.ledger)
        assert stats.n_searches == 12
        expected = sum(e.energy_joules
                       for e in search_passes(small_array.ledger))
        assert stats.total_energy_joules == pytest.approx(expected)


class TestComponentView:
    """The Section V-B split of one pass (what the breakdown reads)."""

    def test_cells_and_sense_amps_are_the_pass_energy(self, small_array,
                                                      rng):
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        result = small_array.search_batch(queries, 3)
        parts = component_energies(search_passes(small_array.ledger)[-1])
        assert parts["cells"] + parts["sense_amps"] == pytest.approx(
            result.energy_joules, rel=1e-12)
        # The shift registers hold the read every cycle, pass or not.
        assert parts["shift_registers"] == (
            constants.SHIFT_REGISTER_ENERGY_PER_SEARCH_J * 5)

    def test_current_domain_pass_is_rejected(self, rng):
        array = CamArray(rows=8, cols=16, domain="current", noisy=False,
                         seed=3)
        array.store(rng.integers(0, 4, (8, 16)).astype(np.uint8))
        array.search_batch(rng.integers(0, 4, (2, 16)).astype(np.uint8), 3)
        with pytest.raises(CamConfigError, match="charge-domain"):
            component_energies(search_passes(array.ledger)[-1])
