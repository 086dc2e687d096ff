"""The ledger's running fold: exactness and retention.

The cost-ledger contract (DESIGN.md, "Cost-ledger contract"): the
ledger compacts every event into its running sums the moment it is
recorded and keeps no event.  Its two readers stay **bit-identical**
to a fold over the whole recorded sequence: ``search_stats`` ``==``
:func:`oracles.fold_events` over what a spy on ``record`` collected
(the same float additions, in record order), and ``pass_counts()`` /
``event_counts()`` ``==`` the recorded classes counted one by one.
Every comparison is exact on the scalar, batched, pass-block and
sweep paths, in both domains.  Once a caller drops its results, no
recorded count block is left alive.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.cost.views import search_stats
from repro.genome.datasets import build_dataset
from repro.service import StreamingMappingService
from oracles import (
    fold_events,
    record_events,
    search_passes,
    watch_count_blocks,
)


def _spied_array(rng, domain="charge", rows=12, cols=24, seed=5):
    """A stored array and the spy on its ledger (store included)."""
    array = CamArray(rows=rows, cols=cols, domain=domain, noisy=True,
                     seed=seed)
    recorded = record_events(array.ledger)
    array.store(rng.integers(0, 4, (rows, cols)).astype(np.uint8))
    return array, recorded


def _assert_fold_exact(ledger, recorded):
    assert search_stats(ledger) == fold_events(recorded)
    assert ledger.event_counts() == Counter(
        type(event).__name__ for event in recorded)
    assert ledger.pass_counts() == Counter(
        type(event).__name__ for event in search_passes(recorded))


@pytest.mark.parametrize("domain", ["charge", "current"])
class TestArrayPathCompaction:
    """Scalar / batched searches: the fold reads the oracle's bits."""

    def test_scalar_searches(self, rng, domain):
        array, recorded = _spied_array(rng, domain)
        queries = rng.integers(0, 4, (9, 24)).astype(np.uint8)
        for i, query in enumerate(queries):
            array.search_batch(query[None, :], 5, MatchMode.ED_STAR,
                               noise_keys=[(i, 0)])
        assert len(search_passes(recorded)) == 9
        _assert_fold_exact(array.ledger, recorded)
        assert array.stats == fold_events(recorded)

    def test_batched_searches(self, rng, domain):
        array, recorded = _spied_array(rng, domain)
        keys = [(i, 0) for i in range(6)]
        for _ in range(4):
            queries = rng.integers(0, 4, (6, 24)).astype(np.uint8)
            array.search_batch(queries, 5, MatchMode.ED_STAR,
                               noise_keys=keys)
            array.search_batch(queries, 5, MatchMode.HAMMING,
                               noise_keys=keys)
        _assert_fold_exact(array.ledger, recorded)


class TestMatcherCompaction:
    """The full strategy flow (ED* + HDAC + TASR, pass blocks)."""

    CONDITION_THRESHOLD = {"A": 3, "B": 6}

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_batch_match(self, condition, small_dataset_a,
                         small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        array = CamArray(rows=dataset.n_segments,
                         cols=dataset.read_length, domain="charge",
                         noisy=True, seed=0)
        recorded = record_events(array.ledger)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=1)
        reads = np.stack([r.read.codes for r in dataset.reads])
        outcome = matcher.match_batch(reads,
                                      self.CONDITION_THRESHOLD[condition])
        _assert_fold_exact(array.ledger, recorded)
        assert search_stats(array.ledger).n_searches == int(
            outcome.n_searches.sum())

    def test_event_counts_match_folded_events(self, rng):
        array, recorded = _spied_array(rng)
        queries = rng.integers(0, 4, (5, 24)).astype(np.uint8)
        keys = [(i, 0) for i in range(5)]
        array.search_batch(queries, 5, MatchMode.ED_STAR, noise_keys=keys)
        array.search_batch(queries, 5, MatchMode.HAMMING, noise_keys=keys)
        array.search_batch(np.roll(queries, -1, axis=1), 5,
                           MatchMode.ED_STAR, noise_keys=keys, rotation=1)
        assert array.ledger.event_counts() == {
            "ReferenceLoad": 1, "EdStarPass": 1, "HdacPass": 1,
            "TasrRotationPass": 1}
        # pass_counts reads only the search-pass classes back out.
        assert array.ledger.pass_counts() == {
            "EdStarPass": 1, "HdacPass": 1, "TasrRotationPass": 1}
        stats = search_stats(array.ledger)
        assert stats == fold_events(recorded)
        assert (stats.n_searches, stats.n_rotation_cycles) == (15, 5)


class TestSweepCompaction:
    """Sweep passes fold like any other event."""

    def _sweep(self, dataset):
        array = CamArray(rows=dataset.n_segments,
                         cols=dataset.read_length, domain="charge",
                         noisy=True, seed=0)
        recorded = record_events(array.ledger)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=1)
        reads = np.stack([r.read.codes for r in dataset.reads])
        matcher.match_sweep(reads, np.arange(1, 9))
        return array, recorded

    def test_sweep_passes_auto_fold(self, small_dataset_a):
        array, recorded = self._sweep(small_dataset_a)
        # The base ED* pass serves the whole sweep vector.
        assert search_passes(recorded)[0].thresholds.tolist() == list(
            range(1, 9))
        assert sum(array.ledger.pass_counts().values()) == len(
            search_passes(recorded))

    def test_fold_sweep_folds_exactly(self, small_dataset_a):
        array, recorded = self._sweep(small_dataset_a)
        _assert_fold_exact(array.ledger, recorded)
        assert array.stats == search_stats(array.ledger)


class TestCompactionRules:
    def test_event_object_survives_fold(self, rng):
        """A caller holding a result keeps reading its energies after
        the ledger has folded and dropped the event."""
        array, _ = _spied_array(rng)
        queries = rng.integers(0, 4, (4, 24)).astype(np.uint8)
        result = array.search_batch(queries, 5, MatchMode.ED_STAR)
        folded_energy = result.energy_per_query_joules.copy()
        array.search_batch(queries, 5, MatchMode.HAMMING)
        assert np.array_equal(result.energy_per_query_joules,
                              folded_energy)


def _array_search(dataset, reads):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     seed=1)
    array.store(dataset.segments)
    watched = watch_count_blocks(array.ledger)
    results = [array.search_batch(reads, 4),
               array.search_sweep(reads, np.arange(3))]
    return array.ledger, watched, results


def _run_batched(dataset, reads):
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     seed=1)
    array.store(dataset.segments)
    pipeline = ReadMappingPipeline(AsmCapMatcher(array, dataset.model,
                                                 seed=1))
    watched = watch_count_blocks(pipeline.ledger)
    return pipeline.ledger, watched, pipeline.run_batched(reads, 8)


def _service_micro_batch(dataset, reads):
    service = StreamingMappingService(
        dataset.segments, dataset.model, threshold=8,
        micro_batch=reads.shape[0], retain_mappings=False, seed=0)
    watched = watch_count_blocks(service.pipeline.ledger)
    service.submit_many(reads)
    return service.pipeline.ledger, watched, service


class TestRetention:
    """No ledger keeps a recorded pass's ``(B, M)`` count block: while
    the ledger lives on, every block dies with the results (or the
    service) its caller drops."""

    @pytest.mark.parametrize("route", [_array_search, _run_batched,
                                       _service_micro_batch],
                             ids=["array-search", "run-batched",
                                  "service-micro-batch"])
    def test_count_blocks_die_with_results(self, route):
        dataset = build_dataset("B", n_reads=16, read_length=64,
                                n_segments=16, seed=1)
        reads = np.stack([r.read.codes for r in dataset.reads])
        ledger, watched, results = route(dataset, reads)
        assert watched
        del results
        gc.collect()
        assert all(block() is None for block in watched)
        assert search_stats(ledger).n_searches > 0


#: The pass kinds of a randomised ledger workload.
_KINDS = st.sampled_from(("ed_star", "hamming", "rotation", "block",
                          "sweep"))


class TestRandomisedFoldPoints:
    """Property: any interleaving of scalar, batched, pass-block and
    sweep passes reads the same ``search_stats``, ``pass_counts()``
    and ``event_counts()`` as the oracle fold over the recorded
    events, in both domains."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_KINDS, min_size=1, max_size=16),
           st.sampled_from(("charge", "current")),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_stats_invariant_under_fold_points(self, kinds, domain, seed):
        rng = np.random.default_rng(seed)
        array, recorded = _spied_array(rng, domain)
        for i, kind in enumerate(kinds):
            n = int(rng.integers(1, 4))
            queries = rng.integers(0, 4, (n, 24)).astype(np.uint8)
            keys = [(i, q) for q in range(n)]
            if kind == "sweep":
                array.search_sweep(queries, np.arange(1, 6),
                                   noise_keys=keys)
            elif kind == "rotation":
                array.search_batch(np.roll(queries, 1, axis=1), 5,
                                   noise_keys=keys, rotation=-1)
            elif kind == "block":
                array.search_batch(queries, 5,
                                   (MatchMode.ED_STAR, MatchMode.HAMMING),
                                   noise_keys=[keys, keys],
                                   rotation=(0, 0))
            else:
                mode = (MatchMode.ED_STAR if kind == "ed_star"
                        else MatchMode.HAMMING)
                array.search_batch(queries, 5, mode, noise_keys=keys)
        _assert_fold_exact(array.ledger, recorded)
        assert array.stats == fold_events(recorded)
