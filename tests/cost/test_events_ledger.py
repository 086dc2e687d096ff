"""Unit tests for the cost-event taxonomy and the ledger."""

from __future__ import annotations

import weakref

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
from oracles import fold_events, record_events, search_passes


@pytest.fixture
def spied(rng):
    """A stored array and the spy on its ledger, installed before the
    store so it sees the ReferenceLoad too."""
    array = CamArray(rows=8, cols=16, domain="charge", noisy=False, seed=3)
    recorded = record_events(array.ledger)
    array.store(rng.integers(0, 4, (8, 16)).astype(np.uint8))
    return array, recorded


@pytest.fixture
def small_array(spied):
    return spied[0]


@pytest.fixture
def recorded(spied):
    return spied[1]


class TestEventEmission:
    def test_store_emits_reference_load(self, recorded):
        loads = [e for e in recorded if isinstance(e, ReferenceLoad)]
        assert len(loads) == 1
        assert loads[0].n_segments == 8
        assert loads[0].n_cells == 16
        assert loads[0].n_bases == 128

    def test_restore_records_rows_written_by_that_call(self, small_array,
                                                       recorded, rng):
        small_array.store(rng.integers(0, 4, (2, 16)).astype(np.uint8))
        loads = [e for e in recorded if isinstance(e, ReferenceLoad)]
        assert [load.n_segments for load in loads] == [8, 2]
        assert small_array.ledger.event_counts() == {"ReferenceLoad": 2}

    def test_scalar_search_emits_ed_star_pass(self, small_array, recorded,
                                              rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        passes = search_passes(recorded)
        assert len(passes) == 1
        event = passes[0]
        assert isinstance(event, EdStarPass)
        assert event.mode == "ed_star"
        assert event.n_queries == 1
        assert event.n_rows == 8
        assert event.shift_cycles == 0
        assert event.thresholds.tolist() == [4]

    def test_hamming_search_emits_hdac_pass(self, small_array, recorded, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4, MatchMode.HAMMING)
        event = search_passes(recorded)[0]
        assert isinstance(event, HdacPass)
        assert event.mode == "hamming"

    def test_rotated_search_emits_rotation_pass(self, small_array, recorded,
                                                rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(np.roll(read, -2)[None, :], 4, rotation=2)
        event = search_passes(recorded)[0]
        assert isinstance(event, TasrRotationPass)
        assert event.rotation == 2
        assert event.shift_cycles == 2

    def test_batch_rotation_pass_scales_shift_cycles(self, small_array, recorded,
                                                     rng):
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        small_array.search_batch(queries, 4, rotation=-3)
        event = search_passes(recorded)[0]
        assert isinstance(event, TasrRotationPass)
        assert event.shift_cycles == 3 * 5

    def test_sweep_pass_records_sweep_vector(self, small_array, recorded, rng):
        queries = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        small_array.search_sweep(queries, np.array([1, 4, 9]))
        event = search_passes(recorded)[0]
        assert event.n_queries == 3
        assert event.thresholds.tolist() == [1, 4, 9]

    def test_batch_pass_records_its_one_threshold(self, small_array, recorded,
                                                  rng):
        """A batch's event holds the ``(1,)`` vector it was decided
        against, not a ``(B,)`` broadcast."""
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        small_array.search_batch(queries, 6, mode=(MatchMode.ED_STAR,) * 2,
                                 noise_keys=[None, None], rotation=(0, 1))
        for event in search_passes(recorded):
            assert event.n_queries == 5
            assert event.thresholds.tolist() == [6]

    def test_event_energy_view_matches_result(self, small_array, recorded,
                                              rng):
        queries = rng.integers(0, 4, (4, 16)).astype(np.uint8)
        result = small_array.search_batch(queries, 4)
        event = search_passes(recorded)[-1]
        assert np.array_equal(search_pass_energy_per_query(event),
                              result.energy_per_query_joules)
        assert event.energy_joules == result.energy_joules
        assert event.latency_ns == result.latency_ns


class TestLedger:
    def test_order_preserved(self, small_array, recorded, rng):
        """The running sums take the recorded passes' additions in
        record order: ``==`` the in-order fold, not just close to it."""
        for threshold in (2, 5, 9):
            queries = rng.integers(0, 4, (3, 16)).astype(np.uint8)
            small_array.search_batch(queries, threshold, MatchMode.HAMMING)
            small_array.search_batch(np.roll(queries, 1, axis=1),
                                     threshold, rotation=-1)
        assert search_stats(small_array.ledger) == fold_events(recorded)

    def test_of_type_and_search_passes(self, small_array, recorded, rng):
        read = rng.integers(0, 4, 16).astype(np.uint8)
        small_array.search_batch(read[None, :], 4)
        assert [type(event) for event in recorded] == [ReferenceLoad,
                                                       EdStarPass]
        assert search_passes(recorded) == tuple(recorded[1:])
        assert small_array.ledger.event_counts() == {"ReferenceLoad": 1,
                                                     "EdStarPass": 1}
        assert small_array.ledger.pass_counts() == {"EdStarPass": 1}

    def test_record_keeps_no_event(self):
        """A recorded event is folded and dropped: nothing but the
        caller keeps it alive."""
        ledger = CostLedger()
        event = ReferenceLoad(n_segments=1, n_cells=4)
        alive = weakref.ref(event)
        ledger.record(event)
        del event
        assert alive() is None
        assert ledger.event_counts() == {"ReferenceLoad": 1}
        assert search_stats(ledger) == search_stats(CostLedger())


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

    def test_stats_accumulate_in_event_order(self, small_array, recorded, rng):
        reads = rng.integers(0, 4, (3, 16)).astype(np.uint8)
        for i, read in enumerate(reads):
            small_array.search_batch(read[None, :], 4)
            small_array.search_batch(np.roll(read, -i)[None, :], 4, rotation=i)
        stats = small_array.stats
        assert stats.n_searches == 6
        assert stats.n_rotation_cycles == 0 + 1 + 2
        total = 0.0
        for event in search_passes(recorded):
            total += event.energy_joules
        assert stats.total_energy_joules == total

    def test_stats_view_matches_manual_recompute(self, small_array, recorded,
                                                 rng):
        queries = rng.integers(0, 4, (6, 16)).astype(np.uint8)
        small_array.search_batch(queries, 3)
        small_array.search_batch(queries, 7, MatchMode.HAMMING)
        stats = search_stats(small_array.ledger)
        assert stats.n_searches == 12
        expected = sum(e.energy_joules
                       for e in search_passes(recorded))
        assert stats.total_energy_joules == pytest.approx(expected)


class TestComponentView:
    """The Section V-B split of one pass (what the breakdown reads)."""

    def test_cells_and_sense_amps_are_the_pass_energy(self, small_array,
                                                      recorded, rng):
        queries = rng.integers(0, 4, (5, 16)).astype(np.uint8)
        result = small_array.search_batch(queries, 3)
        parts = component_energies(search_passes(recorded)[-1])
        assert parts["cells"] + parts["sense_amps"] == pytest.approx(
            result.energy_joules, rel=1e-12)
        # The shift registers hold the read every cycle, pass or not.
        assert parts["shift_registers"] == (
            constants.SHIFT_REGISTER_ENERGY_PER_SEARCH_J * 5)

    def test_current_domain_pass_is_rejected(self, rng):
        array = CamArray(rows=8, cols=16, domain="current", noisy=False,
                         seed=3)
        array.store(rng.integers(0, 4, (8, 16)).astype(np.uint8))
        recorded = record_events(array.ledger)
        array.search_batch(rng.integers(0, 4, (2, 16)).astype(np.uint8), 3)
        with pytest.raises(CamConfigError, match="charge-domain"):
            component_energies(search_passes(recorded)[-1])
