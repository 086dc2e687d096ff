"""Sharded observability across the compaction matrix.

``merged_stats()`` / ``ledger_observability()`` are the operator's
whole-system evidence, and the determinism contract extends to them:
the counters must be identical between compacted and append-only
ledgers for the same seeded run — compaction changes *where* events
fold, never *what* they count.  The sharded pipeline keeps append-only
ledgers, so the compacted cell folds every ledger between two
micro-batches (``CostLedger.compact``), the point where a long-running
banked stream would fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import ShardedReadMappingPipeline
from repro.genome.edits import ErrorModel

# Threaded stress path: a deadlock must fail loud in CI, not eat the
# job timeout (inert without the pytest-timeout plugin).
pytestmark = pytest.mark.timeout(120)

THRESHOLD = 8
N_SHARDS = 2
#: Append-only, and every ledger folded after the first micro-batch.
COMPACTIONS = (None, "folded")
#: Reads in the first micro-batch; the second takes the rest.
SPLIT = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0xBEEF)
    segments = rng.integers(0, 4, size=(96, 64), dtype=np.uint8)
    reads = [segments[(j * 11) % 96].copy() for j in range(20)]
    return segments, reads


def _run(workload, compaction: "str | None"):
    segments, reads = workload
    pipeline = ShardedReadMappingPipeline(
        segments, ErrorModel(substitution=0.02, insertion=0.01,
                             deletion=0.01),
        n_shards=N_SHARDS, seed=5, max_workers=1,
        # Small chunks so each micro-batch records several events.
        chunk_size=4,
    )
    try:
        report = pipeline.run(reads[:SPLIT], threshold=THRESHOLD)
        if compaction is not None:
            for ledger in (pipeline.ledger,
                           *(m.array.ledger for m in pipeline.matchers)):
                ledger.compact()
        tail = pipeline.run(reads[SPLIT:], threshold=THRESHOLD,
                            first_read_index=SPLIT)
        report.add(tail)
        stats = pipeline.merged_stats()
        observability = pipeline.ledger_observability()
        return report, stats, observability
    finally:
        pipeline.close()


@pytest.fixture(scope="module")
def matrix(workload):
    """One run per compaction setting."""
    return {compaction: _run(workload, compaction)
            for compaction in COMPACTIONS}


class TestMergedStatsMatrix:
    def test_integer_counters_identical_across_matrix(self, matrix):
        baseline = matrix[None][1]
        assert baseline.n_searches > 0
        for key, (_, stats, _) in matrix.items():
            assert stats.n_searches == baseline.n_searches, key
            assert stats.n_rotation_cycles == \
                baseline.n_rotation_cycles, key

    def test_thread_float_totals_exact_under_compaction(self, matrix):
        # Same fold order: compaction restores the folded prefix
        # exactly, so even the float totals are bit-identical.
        plain = matrix[None][1]
        compacted = matrix["folded"][1]
        assert compacted.total_energy_joules == \
            plain.total_energy_joules
        assert compacted.total_latency_ns == plain.total_latency_ns

    def test_reports_bit_identical_across_matrix(self, matrix):
        baseline = matrix[None][0]
        for key, (report, _, _) in matrix.items():
            assert report.n_mapped == baseline.n_mapped, key
            assert report.total_energy_joules == \
                baseline.total_energy_joules, key
            assert report.total_latency_ns == \
                baseline.total_latency_ns, key
            assert [m.matched_rows for m in report.mappings] == \
                [m.matched_rows for m in baseline.mappings], key


class TestLedgerObservabilityMatrix:
    def test_pass_counts_identical_across_matrix(self, matrix):
        baseline = matrix[None][2][0]
        assert baseline  # at least one pass kind counted
        for key, (_, _, observability) in matrix.items():
            assert observability[0] == baseline, key

    def test_thread_append_only_never_compacts(self, matrix):
        _, live, folded, _, compactions = matrix[None][2]
        assert compactions == 0
        assert folded == 0
        assert live > 0

    def test_thread_compaction_bounds_live_events(self, matrix):
        _, live_plain, _, _, _ = matrix[None][2]
        _, live, folded, _, compactions = matrix["folded"][2]
        assert compactions > 0
        assert folded > 0
        assert live < live_plain

    def test_population_stays_with_live_events(self, matrix):
        # Population is a property of *live* events: it shrinks as
        # compaction folds events away.
        plain = matrix[None][2][3]
        compacted = matrix["folded"][2][3]
        assert plain > 0
        assert 0 < compacted < plain
