"""Ledger-compaction equivalence property tests.

The compaction contract (DESIGN.md, "Cost-ledger contract:
compaction"): folding fully-materialised events into a
:class:`~repro.cost.events.CompactionCheckpoint` must leave every
ledger view **bit-identical** — the checkpoint stores the views' own
running float accumulations, computed in event order at fold time, so
a view resuming from it performs exactly the additions the uncompacted
event sequence would.  Every comparison below is exact (``==``), on
all four execution paths (scalar, batched, sweep, sharded), and the
illegality rules (mid-stream checkpoints, compacted merges, sweep
folding) are enforced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ShardedReadMappingPipeline
from repro.cost.events import (
    CompactionCheckpoint,
    EdStarPass,
    HdacPass,
    ReferenceLoad,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.profile import profile_from_ledger
from repro.errors import ExperimentError
from repro.cost.views import component_energy_totals, search_stats
from repro.errors import CamConfigError, LedgerCompactionError


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
    if all(not hasattr(e, "domain") or e.domain == "charge"
           for e in plain):
        assert (component_energy_totals(compacting)
                == component_energy_totals(plain))


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

    def test_current_domain_component_view_still_raises(self, rng, domain):
        """Folding a current-domain pass must not launder the
        charge-only Section V-B split into a silent number."""
        if domain == "charge":
            pytest.skip("current-domain behaviour")
        _, compacting = _twin_arrays(rng, domain)
        queries = rng.integers(0, 4, (9, 24)).astype(np.uint8)
        compacting.search_batch(queries, 5, MatchMode.ED_STAR)
        compacting.ledger.compact()
        assert compacting.ledger.checkpoint.component_totals is None
        with pytest.raises(CamConfigError):
            component_energy_totals(compacting.ledger)


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
        _assert_views_identical(ledgers[None], ledgers[2])
        # Per-class counts survive folding.
        assert ledgers[2].pass_counts() == ledgers[None].pass_counts()

    def test_pass_class_summaries_match_folded_events(self, rng):
        plain, compacting = _twin_arrays(rng, compaction=2)
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
        compacting.ledger.compact()
        summaries = compacting.ledger.checkpoint.pass_summaries
        events = plain.ledger.search_passes()
        by_class = {
            "EdStarPass": [e for e in events
                           if isinstance(e, EdStarPass)
                           and not isinstance(e, TasrRotationPass)],
            "HdacPass": [e for e in events if isinstance(e, HdacPass)],
            "TasrRotationPass": [e for e in events
                                 if isinstance(e, TasrRotationPass)],
        }
        for name, group in by_class.items():
            summary = summaries[name]
            assert summary.n_passes == len(group)
            assert summary.n_queries == sum(e.n_queries for e in group)
            assert summary.shift_cycles == sum(e.shift_cycles
                                               for e in group)
            counts = np.concatenate(
                [e.mismatch_counts.ravel() for e in group])
            assert summary.population_count == counts.size
            assert summary.population_sum == int(counts.sum())
            assert summary.population_min == int(counts.min())
            assert summary.population_max == int(counts.max())
            assert summary.population_mean == pytest.approx(
                float(counts.mean()))


class TestSweepCompaction:
    """Sweep passes are preserved; fold_sweep is the explicit escape."""

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

    def test_sweep_passes_never_auto_fold(self, small_dataset_a):
        ledger = self._sweep_ledger(small_dataset_a, compaction=1)
        # Every sweep pass is still live — profile harvesting needs
        # their per-event threshold coverage.
        assert all(event.sweep for event in ledger.search_passes())
        assert len(ledger.search_passes()) > 0
        profile = profile_from_ledger(ledger, range(1, 9))
        plain = self._sweep_ledger(small_dataset_a, compaction=None)
        assert profile == profile_from_ledger(plain, range(1, 9))
        assert search_stats(ledger) == search_stats(plain)

    def test_fold_sweep_folds_exactly_and_kills_harvesting(
            self, small_dataset_a):
        ledger = self._sweep_ledger(small_dataset_a, compaction=1)
        plain = self._sweep_ledger(small_dataset_a, compaction=None)
        folded = ledger.compact(fold_sweep=True)
        assert folded > 0
        assert not ledger.search_passes()
        assert search_stats(ledger) == search_stats(plain)
        with pytest.raises(ExperimentError):
            profile_from_ledger(ledger, range(1, 9))


class TestShardedCompaction:
    """Sharded runs: per-shard and system-level views stay exact."""

    def test_sharded_run(self, small_dataset_a):
        reads = np.stack([r.read.codes for r in small_dataset_a.reads])
        pipelines = {}
        reports = {}
        for compaction in (None, 2):
            pipeline = ShardedReadMappingPipeline(
                small_dataset_a.segments, small_dataset_a.model,
                n_shards=4, noisy=True, seed=0, chunk_size=7,
                ledger_compaction=compaction,
            )
            reports[compaction] = pipeline.run(reads, 3)
            pipelines[compaction] = pipeline
        compacted, plain = pipelines[2], pipelines[None]
        assert any(m.array.ledger.n_folded > 0
                   for m in compacted.matchers)
        # Reports are bit-identical (per-read costs are captured in
        # outcomes before any fold).
        assert (reports[2].total_energy_joules
                == reports[None].total_energy_joules)
        assert (reports[2].total_latency_ns
                == reports[None].total_latency_ns)
        # Per-shard ledger views are exact...
        for ours, theirs in zip(compacted.matchers, plain.matchers, strict=True):
            assert (search_stats(ours.array.ledger)
                    == search_stats(theirs.array.ledger))
        # ...and so is the deterministic shard-ordered aggregation.
        assert compacted.merged_stats() == plain.merged_stats()

    def test_merged_ledger_rejects_compacted_shards(self,
                                                    small_dataset_a):
        reads = np.stack([r.read.codes for r in small_dataset_a.reads])
        pipeline = ShardedReadMappingPipeline(
            small_dataset_a.segments, small_dataset_a.model, n_shards=2,
            noisy=True, seed=0, chunk_size=7, ledger_compaction=2,
        )
        pipeline.run(reads, 3)
        with pytest.raises(LedgerCompactionError):
            pipeline.merged_ledger()

    def test_merged_accepts_leading_compacted_ledger(self, rng):
        _, compacting = _twin_arrays(rng, compaction=2)
        queries = rng.integers(0, 4, (6, 24)).astype(np.uint8)
        compacting.search_batch(queries, 5, MatchMode.ED_STAR)
        compacting.ledger.compact()
        other = CostLedger([ReferenceLoad(n_segments=2, n_cells=24)])
        merged = CostLedger.merged(compacting.ledger, other)
        assert merged.checkpoint is not None
        assert search_stats(merged) == search_stats(compacting.ledger)


class TestCompactionRules:
    """The illegality rules and the bookkeeping surface."""

    def test_midstream_checkpoint_rejected_by_views(self):
        checkpoint = CompactionCheckpoint(
            n_folded=1, n_searches=1, n_rotation_cycles=0,
            total_energy_joules=0.0, total_latency_ns=0.0,
            component_totals=None, pass_summaries={},
        )
        events = [ReferenceLoad(n_segments=1, n_cells=8), checkpoint]
        with pytest.raises(LedgerCompactionError):
            search_stats(events)
        with pytest.raises(LedgerCompactionError):
            component_energy_totals(events)

    def test_compact_refuses_midstream_checkpoint(self):
        checkpoint = CompactionCheckpoint(
            n_folded=1, n_searches=1, n_rotation_cycles=0,
            total_energy_joules=0.0, total_latency_ns=0.0,
            component_totals=None, pass_summaries={},
        )
        ledger = CostLedger([ReferenceLoad(n_segments=1, n_cells=8),
                             checkpoint])
        with pytest.raises(LedgerCompactionError):
            ledger.compact()

    def test_invalid_bound_rejected(self):
        with pytest.raises(LedgerCompactionError):
            CostLedger(compaction=0)

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


class TestRandomisedFoldPoints:
    """Property: any interleaving of searches and compact() calls
    reads the same stats as the append-only ledger."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=24),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_stats_invariant_under_fold_points(self, fold_points, seed):
        rng = np.random.default_rng(seed)
        plain, compacting = _twin_arrays(rng, compaction=None)
        compacting_manual = compacting  # manual compact() only
        for i, fold_here in enumerate(fold_points):
            query = rng.integers(0, 4, 24).astype(np.uint8)
            for array in (plain, compacting_manual):
                array.search_batch(query[None, :], 5, MatchMode.ED_STAR,
                                   noise_keys=[(i, 0)])
            if fold_here:
                compacting_manual.ledger.compact()
        assert (search_stats(compacting_manual.ledger)
                == search_stats(plain.ledger))
        assert (component_energy_totals(compacting_manual.ledger)
                == component_energy_totals(plain.ledger))
