"""Ledger observability across the compaction matrix.

``fold_ledger_observability`` is the operator's bounded-memory
evidence (the ledger fields of ``ServiceStats``), and the determinism
contract extends to it: pass counts must be identical between
compacted and append-only ledgers for the same seeded run —
compaction changes *where* events fold, never *what* they count.  The
batched pipeline's array keeps an append-only ledger, so the
compacted cell folds it between two micro-batches
(``CostLedger.compact``), the point where a long-running stream would
fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import ReadMappingPipeline
from repro.cost.views import fold_ledger_observability, search_stats
from repro.genome.edits import ErrorModel

THRESHOLD = 8
#: Append-only, and the ledger folded after the first micro-batch.
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
    array = CamArray(rows=96, cols=64, seed=5)
    array.store(segments)
    pipeline = ReadMappingPipeline(AsmCapMatcher(
        array, ErrorModel(substitution=0.02, insertion=0.01,
                          deletion=0.01), seed=5))
    report = pipeline.run_batched(reads[:SPLIT], threshold=THRESHOLD)
    if compaction is not None:
        pipeline.ledger.compact()
    report.add(pipeline.run_batched(reads[SPLIT:], threshold=THRESHOLD,
                                    first_read_index=SPLIT))
    return (report, fold_ledger_observability(pipeline.ledger),
            search_stats(pipeline.ledger))


@pytest.fixture(scope="module")
def matrix(workload):
    """One run per compaction setting."""
    return {compaction: _run(workload, compaction)
            for compaction in COMPACTIONS}


class TestLedgerObservabilityMatrix:
    def test_pass_counts_identical_across_matrix(self, matrix):
        baseline = matrix[None][1][0]
        assert baseline  # at least one pass kind counted
        for key, (_, observability, _) in matrix.items():
            assert observability[0] == baseline, key

    def test_thread_append_only_never_compacts(self, matrix):
        _, live, folded, _, compactions = matrix[None][1]
        assert compactions == 0
        assert folded == 0
        assert live > 0

    def test_thread_compaction_bounds_live_events(self, matrix):
        _, live_plain, _, _, _ = matrix[None][1]
        _, live, folded, _, compactions = matrix["folded"][1]
        assert compactions > 0
        assert folded > 0
        assert live < live_plain

    def test_population_stays_with_live_events(self, matrix):
        # Population is a property of *live* events: it shrinks as
        # compaction folds events away.
        plain = matrix[None][1][3]
        compacted = matrix["folded"][1][3]
        assert plain > 0
        assert 0 < compacted < plain

    def test_reports_identical_across_matrix(self, matrix):
        assert matrix["folded"][0] == matrix[None][0]

    def test_search_stats_exact_under_compaction(self, matrix):
        # The checkpoint restores the folded prefix exactly, so even
        # the float totals are bit-identical.
        plain = matrix[None][2]
        assert plain.n_searches > 0
        assert matrix["folded"][2] == plain
