"""Ledger-equivalence property tests.

The acceptance contract of the cost-ledger refactor: energies and
latencies **derived from the recorded ledger events** are bit-identical to the
seed's float accumulation on every execution path — scalar, batched,
sweep and the batched read-mapping report — under a fixed seed, for both array modes and both
error conditions.  Every comparison below is exact (``==`` /
``array_equal``), not approximate: the views and the outcomes must
read the same floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cam.energy import search_energy_per_row
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.cost.events import EdStarPass, SearchPassEvent, TasrRotationPass
from oracles import record_events, search_passes


def _dataset_reads(dataset):
    return np.stack([record.read.codes for record in dataset.reads])


def _seed_pass_energy(event: SearchPassEvent) -> np.ndarray:
    """The pre-refactor per-query energy accumulation, re-derived.

    Replicates the seed's ``CamArray._search_energy_batch`` float
    arithmetic from the event's recorded mismatch populations.
    """
    counts = event.mismatch_counts
    n_rows = counts.shape[1]
    if event.domain == "charge":
        cells = search_energy_per_row(counts, event.n_cells,
                                      vdd=event.vdd).sum(axis=1)
    else:
        precharge = (constants.EDAM_ML_PRECHARGE_CAP_F
                     * event.vdd**2 * n_rows)
        discharge = (constants.EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J
                     * counts.sum(axis=1, dtype=float))
        cells = precharge + discharge
    peripherals = constants.SA_ENERGY_PER_ROW_J * n_rows
    return np.asarray(cells + peripherals, dtype=float)


@pytest.mark.parametrize("domain", ["charge", "current"])
@pytest.mark.parametrize("mode", [MatchMode.ED_STAR, MatchMode.HAMMING])
class TestArrayPathIdentity:
    """Scalar / batched / sweep searches read identical energies."""

    def test_energy_identical_across_paths(self, rng, domain, mode):
        array_scalar = CamArray(rows=12, cols=24, domain=domain,
                                noisy=True, seed=5)
        array_batch = CamArray(rows=12, cols=24, domain=domain,
                               noisy=True, seed=5)
        array_sweep = CamArray(rows=12, cols=24, domain=domain,
                               noisy=True, seed=5)
        segments = rng.integers(0, 4, (12, 24)).astype(np.uint8)
        for array in (array_scalar, array_batch, array_sweep):
            array.store(segments)
        queries = rng.integers(0, 4, (7, 24)).astype(np.uint8)
        keys = [(i, 0) for i in range(7)]

        scalar_energies = np.asarray([
            array_scalar.search_batch(q[None, :], 5, mode,
                                      noise_keys=[k]).energy_joules
            for q, k in zip(queries, keys, strict=True)
        ])
        batch = array_batch.search_batch(queries, 5, mode, noise_keys=keys)
        sweep = array_sweep.search_sweep(queries, np.array([2, 5, 9]),
                                         mode, noise_keys=keys)

        assert np.array_equal(scalar_energies,
                              batch.energy_per_query_joules)
        assert np.array_equal(batch.energy_per_query_joules,
                              sweep.energy_per_query_joules)

    def test_view_matches_seed_accumulation(self, rng, domain, mode):
        array = CamArray(rows=10, cols=20, domain=domain, noisy=True,
                         seed=9)
        array.store(rng.integers(0, 4, (10, 20)).astype(np.uint8))
        recorded = record_events(array.ledger)
        queries = rng.integers(0, 4, (5, 20)).astype(np.uint8)
        array.search_batch(queries, 4, mode)
        array.search_batch(queries[:1], 4, mode)
        for event in search_passes(recorded):
            assert np.array_equal(event.energy_per_query_joules,
                                  _seed_pass_energy(event))


def _make_matcher(dataset, seed=0, config=None):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, config or MatcherConfig(),
                         seed=seed + 1)


def _scalar_groups(recorded):
    """Split a scalar run's recorded events into one group per match()."""
    groups: list[list[SearchPassEvent]] = []
    for event in search_passes(recorded):
        if isinstance(event, EdStarPass) and not isinstance(
                event, TasrRotationPass):
            groups.append([event])
        else:
            groups[-1].append(event)
    return groups


CONDITION_THRESHOLD = {"A": 3, "B": 6}


class TestMatcherPathReconstruction:
    """MatchOutcome cost fields reconstruct exactly from the events."""

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_scalar_match(self, condition, small_dataset_a,
                          small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        threshold = CONDITION_THRESHOLD[condition]
        matcher = _make_matcher(dataset)
        recorded = record_events(matcher.array.ledger)
        reads = _dataset_reads(dataset)
        outcomes = [matcher.match(read, threshold, query_key=i)
                    for i, read in enumerate(reads)]
        groups = _scalar_groups(recorded)
        assert len(groups) == len(outcomes)
        for outcome, group in zip(outcomes, groups, strict=True):
            energy = 0.0
            latency = 0.0
            for event in group:
                energy += float(event.energy_per_query_joules[0])
                latency += event.search_time_ns
            assert outcome.energy_joules == energy
            assert outcome.latency_ns == latency
            assert outcome.n_searches == len(group)

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_batch_match(self, condition, small_dataset_a,
                         small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        threshold = CONDITION_THRESHOLD[condition]
        matcher = _make_matcher(dataset)
        recorded = record_events(matcher.array.ledger)
        reads = _dataset_reads(dataset)
        outcome = matcher.match_batch(reads, threshold)
        n = reads.shape[0]
        energy = np.zeros(n)
        latency = np.zeros(n)
        searches = np.zeros(n, dtype=int)
        for event in search_passes(recorded):
            positions = event.query_keys[:, 0]
            energy[positions] += event.energy_per_query_joules
            latency[positions] += event.search_time_ns
            searches[positions] += 1
        assert np.array_equal(outcome.energy_joules, energy)
        assert np.array_equal(outcome.latency_ns, latency)
        assert np.array_equal(outcome.n_searches, searches)

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_sweep_match(self, condition, small_dataset_a,
                         small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        thresholds = np.arange(1, 9)
        matcher = _make_matcher(dataset)
        recorded = record_events(matcher.array.ledger)
        reads = _dataset_reads(dataset)
        outcome = matcher.match_sweep(reads, thresholds)
        n_thresholds, n_queries = outcome.energy_joules.shape
        energy = np.zeros((n_thresholds, n_queries))
        latency = np.zeros((n_thresholds, n_queries))
        searches = np.zeros((n_thresholds, n_queries), dtype=int)
        for event in search_passes(recorded):
            covered = np.isin(thresholds, event.thresholds)
            energy[covered] += event.energy_per_query_joules
            latency[covered] += event.search_time_ns
            searches[covered] += 1
        assert np.array_equal(outcome.energy_joules, energy)
        assert np.array_equal(outcome.latency_ns, latency)
        assert np.array_equal(outcome.n_searches, searches)
        # Sweep slice t carries what match_batch at thresholds[t] carries.
        fresh = _make_matcher(dataset)
        batch = fresh.match_batch(reads, int(thresholds[3]))
        assert np.array_equal(outcome.energy_joules[3],
                              batch.energy_joules)

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_batched_report(self, condition, small_dataset_a,
                            small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        threshold = CONDITION_THRESHOLD[condition]
        pipeline = ReadMappingPipeline(_make_matcher(dataset))
        recorded = record_events(pipeline.ledger)
        reads = _dataset_reads(dataset)
        report = pipeline.run_batched(reads, threshold)
        n = reads.shape[0]
        # Per-query totals from the recorded passes, in pass order.
        energy = np.zeros(n)
        latency = np.zeros(n)
        for event in search_passes(recorded):
            positions = event.query_keys[:, 0]
            energy[positions] += event.energy_per_query_joules
            latency[positions] += event.search_time_ns
        for q, mapping in enumerate(report.mappings):
            assert mapping.outcome.energy_joules == energy[q]
            assert mapping.outcome.latency_ns == latency[q]
        # Report totals are the seed's query-order accumulation.
        total_energy = 0.0
        for q in range(n):
            total_energy += energy[q]
        assert report.total_energy_joules == total_energy
