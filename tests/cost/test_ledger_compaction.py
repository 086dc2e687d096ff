"""Ledger-compaction equivalence property tests.

The compaction contract (DESIGN.md, "Cost-ledger contract:
compaction"): once more than ``K`` events are live, every live event
folds into one :class:`~repro.cost.events.CompactionCheckpoint`, and
the ledger's two readers stay **bit-identical** — ``search_stats``
resumes from the checkpoint's running sums (the same float additions,
in event order, performed at fold time) and ``pass_counts()`` reads
the checkpoint's per-class event counts.  Every comparison below is
exact (``==``) on the scalar, batched and sweep paths.  Views and
compactions meeting a mid-stream checkpoint raise
:class:`~repro.errors.LedgerCompactionError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.cost.events import (
    CompactionCheckpoint,
    EdStarPass,
    HdacPass,
    ReferenceLoad,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.views import search_stats
from repro.errors import LedgerCompactionError
from oracles import search_passes


def _twin_arrays(rng, domain="charge", rows=12, cols=24, seed=5,
                 compaction=4):
    """Two identically-seeded arrays: append-only and compacting."""
    plain = CamArray(rows=rows, cols=cols, domain=domain, noisy=True,
                     seed=seed)
    compacting = CamArray(rows=rows, cols=cols, domain=domain, noisy=True,
                          seed=seed, ledger_compaction=compaction)
    segments = rng.integers(0, 4, (rows, cols)).astype(np.uint8)
    plain.store(segments)
    compacting.store(segments)
    return plain, compacting


def _assert_views_identical(plain: CostLedger, compacting: CostLedger):
    assert search_stats(compacting) == search_stats(plain)
    assert compacting.pass_counts() == plain.pass_counts()


def _checkpoint(**fields) -> CompactionCheckpoint:
    values = dict(n_folded=1, n_searches=1, n_rotation_cycles=0,
                  total_energy_joules=0.0, total_latency_ns=0.0,
                  event_counts={"EdStarPass": 1})
    values.update(fields)
    return CompactionCheckpoint(**values)


@pytest.mark.parametrize("domain", ["charge", "current"])
class TestArrayPathCompaction:
    """Scalar / batched searches: compacted views read the same bits."""

    def test_scalar_searches(self, rng, domain):
        plain, compacting = _twin_arrays(rng, domain)
        queries = rng.integers(0, 4, (9, 24)).astype(np.uint8)
        for i, query in enumerate(queries):
            for array in (plain, compacting):
                array.search_batch(query[None, :], 5, MatchMode.ED_STAR,
                                   noise_keys=[(i, 0)])
        assert compacting.ledger.n_folded > 0
        _assert_views_identical(plain.ledger, compacting.ledger)
        assert compacting.stats == plain.stats

    def test_batched_searches(self, rng, domain):
        plain, compacting = _twin_arrays(rng, domain, compaction=2)
        keys = [(i, 0) for i in range(6)]
        for _ in range(4):
            queries = rng.integers(0, 4, (6, 24)).astype(np.uint8)
            for array in (plain, compacting):
                array.search_batch(queries, 5, MatchMode.ED_STAR,
                                   noise_keys=keys)
                array.search_batch(queries, 5, MatchMode.HAMMING,
                                   noise_keys=keys)
        assert compacting.ledger.n_folded > 0
        _assert_views_identical(plain.ledger, compacting.ledger)

    def test_bound_counts_every_live_event(self, rng, domain):
        """More than K live events fold them all: the store's
        ReferenceLoad counts toward the bound, and the ledger holds
        only the checkpoint afterwards."""
        _, compacting = _twin_arrays(rng, domain, compaction=2)
        queries = rng.integers(0, 4, (3, 24)).astype(np.uint8)
        compacting.search_batch(queries, 5, MatchMode.ED_STAR)
        assert compacting.ledger.n_folded == 0  # ReferenceLoad + 1 pass
        compacting.search_batch(queries, 5, MatchMode.HAMMING)
        ledger = compacting.ledger
        assert ledger.events == (ledger.checkpoint,)
        assert ledger.n_folded == 3
        assert ledger.checkpoint.event_counts == {
            "ReferenceLoad": 1, "EdStarPass": 1, "HdacPass": 1}


class TestMatcherCompaction:
    """The full strategy flow (ED* + HDAC + TASR) under compaction."""

    CONDITION_THRESHOLD = {"A": 3, "B": 6}

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_batch_match(self, condition, small_dataset_a,
                         small_dataset_b):
        dataset = (small_dataset_a if condition == "A"
                   else small_dataset_b)
        threshold = self.CONDITION_THRESHOLD[condition]
        reads = np.stack([r.read.codes for r in dataset.reads])
        outcomes = {}
        ledgers = {}
        for compaction in (None, 2):
            array = CamArray(rows=dataset.n_segments,
                             cols=dataset.read_length, domain="charge",
                             noisy=True, seed=0,
                             ledger_compaction=compaction)
            array.store(dataset.segments)
            matcher = AsmCapMatcher(array, dataset.model,
                                    MatcherConfig(), seed=1)
            outcomes[compaction] = matcher.match_batch(reads, threshold)
            ledgers[compaction] = array.ledger
        assert ledgers[2].n_folded > 0
        assert np.array_equal(outcomes[2].decisions,
                              outcomes[None].decisions)
        assert np.array_equal(outcomes[2].energy_joules,
                              outcomes[None].energy_joules)
        # Per-class counts survive folding.
        _assert_views_identical(ledgers[None], ledgers[2])

    def test_event_counts_match_folded_events(self, rng):
        plain, compacting = _twin_arrays(rng, compaction=None)
        queries = rng.integers(0, 4, (5, 24)).astype(np.uint8)
        keys = [(i, 0) for i in range(5)]
        for array in (plain, compacting):
            array.search_batch(queries, 5, MatchMode.ED_STAR,
                               noise_keys=keys)
            array.search_batch(queries, 5, MatchMode.HAMMING,
                               noise_keys=keys)
            array.search_batch(np.roll(queries, -1, axis=1), 5,
                               MatchMode.ED_STAR, noise_keys=keys,
                               rotation=1)
        assert compacting.ledger.compact() == len(plain.ledger)
        checkpoint = compacting.ledger.checkpoint
        assert checkpoint.n_folded == len(plain.ledger)
        counts: "dict[str, int]" = {}
        for event in plain.ledger:
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
        assert checkpoint.event_counts == counts
        assert counts["ReferenceLoad"] == 1
        # pass_counts reads only the search-pass classes back out.
        assert compacting.ledger.pass_counts() == {
            "EdStarPass": 1, "HdacPass": 1, "TasrRotationPass": 1}
        stats = search_stats(plain.ledger)
        assert (checkpoint.n_searches, checkpoint.n_rotation_cycles,
                checkpoint.total_energy_joules,
                checkpoint.total_latency_ns) == (
            stats.n_searches, stats.n_rotation_cycles,
            stats.total_energy_joules, stats.total_latency_ns)


class TestSweepCompaction:
    """Sweep passes fold like any other event."""

    def _sweep_ledger(self, dataset, compaction):
        array = CamArray(rows=dataset.n_segments,
                         cols=dataset.read_length, domain="charge",
                         noisy=True, seed=0,
                         ledger_compaction=compaction)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=1)
        reads = np.stack([r.read.codes for r in dataset.reads])
        matcher.match_sweep(reads, np.arange(1, 9))
        return array.ledger

    def test_sweep_passes_auto_fold(self, small_dataset_a):
        ledger = self._sweep_ledger(small_dataset_a, compaction=1)
        plain = self._sweep_ledger(small_dataset_a, compaction=None)
        assert ledger.n_folded > 0
        assert len(search_passes(ledger)) <= 1
        # The base ED* pass serves the whole sweep vector.
        assert search_passes(plain)[0].thresholds.tolist() == list(
            range(1, 9))
        _assert_views_identical(plain, ledger)

    def test_fold_sweep_folds_exactly(self, small_dataset_a):
        ledger = self._sweep_ledger(small_dataset_a, compaction=None)
        plain = self._sweep_ledger(small_dataset_a, compaction=None)
        folded = ledger.compact()
        assert folded == len(plain)
        assert not search_passes(ledger)
        _assert_views_identical(plain, ledger)


class TestCompactionRules:
    """The illegality rules and the bookkeeping surface."""

    def test_midstream_checkpoint_rejected_by_views(self):
        events = [ReferenceLoad(n_segments=1, n_cells=8), _checkpoint()]
        with pytest.raises(LedgerCompactionError):
            search_stats(events)

    def test_compact_refuses_midstream_checkpoint(self):
        ledger = CostLedger([ReferenceLoad(n_segments=1, n_cells=8),
                             _checkpoint()])
        with pytest.raises(LedgerCompactionError):
            ledger.compact()
        assert len(ledger) == 2  # nothing folded

    def test_invalid_bound_rejected(self):
        for bound in (0, -1, 1.5, True, "3"):
            with pytest.raises(LedgerCompactionError):
                CostLedger(compaction=bound)
        assert CostLedger(compaction=np.int64(3)).compaction == 3

    def test_clear_drops_checkpoint(self, rng):
        _, compacting = _twin_arrays(rng, compaction=1)
        queries = rng.integers(0, 4, (4, 24)).astype(np.uint8)
        compacting.search_batch(queries, 5, MatchMode.ED_STAR)
        assert compacting.ledger.checkpoint is not None
        compacting.ledger.clear()
        assert compacting.ledger.checkpoint is None
        assert len(compacting.ledger) == 0
        assert search_stats(compacting.ledger).n_searches == 0

    def test_event_object_survives_fold(self, rng):
        """A caller holding the event keeps reading cached views."""
        _, compacting = _twin_arrays(rng, compaction=1)
        queries = rng.integers(0, 4, (4, 24)).astype(np.uint8)
        result = compacting.search_batch(queries, 5, MatchMode.ED_STAR)
        folded_energy = result.energy_per_query_joules
        compacting.search_batch(queries, 5, MatchMode.HAMMING)
        assert np.array_equal(result.energy_per_query_joules,
                              folded_energy)


#: One step of a randomised ledger workload: the pass kind and whether
#: ``compact()`` runs after it.
_STEPS = st.tuples(st.sampled_from(("ed_star", "hamming", "rotation",
                                    "sweep")),
                   st.booleans())


class TestRandomisedFoldPoints:
    """Property: any interleaving of passes (sweep passes included),
    automatic folds at any bound and manual ``compact()`` calls reads
    the same ``search_stats`` and ``pass_counts()`` as the append-only
    ledger, in both domains."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_STEPS, min_size=1, max_size=16),
           st.sampled_from(("charge", "current")),
           st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_stats_invariant_under_fold_points(self, steps, domain,
                                               bound, seed):
        rng = np.random.default_rng(seed)
        plain, compacting = _twin_arrays(rng, domain, compaction=bound)
        thresholds = np.arange(1, 6)
        for i, (kind, fold_here) in enumerate(steps):
            n = int(rng.integers(1, 4))
            queries = rng.integers(0, 4, (n, 24)).astype(np.uint8)
            keys = [(i, q) for q in range(n)]
            for array in (plain, compacting):
                if kind == "sweep":
                    array.search_sweep(queries, thresholds,
                                       noise_keys=keys)
                elif kind == "rotation":
                    array.search_batch(np.roll(queries, 1, axis=1), 5,
                                       noise_keys=keys, rotation=-1)
                else:
                    mode = (MatchMode.ED_STAR if kind == "ed_star"
                            else MatchMode.HAMMING)
                    array.search_batch(queries, 5, mode, noise_keys=keys)
            if fold_here:
                compacting.ledger.compact()
        _assert_views_identical(plain.ledger, compacting.ledger)
        assert compacting.stats == plain.stats
        if bound is not None:
            assert len(compacting.ledger) <= bound + 1
