"""End-to-end integration tests across module boundaries.

These tests wire the whole stack together the way the experiments do
(genome -> distance ground truth -> CAM -> strategies -> evaluation)
and check cross-cutting invariants no single module can see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CmCpuBaseline, EdamMatcher, ResmaBaseline
from repro.cam import CamArray, MatchMode
from repro.core import (
    AsmCapMatcher,
    MatcherConfig,
    ReadMappingPipeline,
)
from repro.distance import edit_distance, myers_edit_distance
from repro.eval import AccuracyExperiment, asmcap_plain_system, label_dataset
from repro.genome import DnaSequence, build_dataset
from tests.distance.test_landau_vishkin import landau_vishkin


def _semiglobal_distance(read: DnaSequence, text: DnaSequence) -> int:
    """Fewest edits placing *read* anywhere inside *text*: row 0 of the
    DP is all zeros (free leading text) and the answer is the minimum
    of the last row (free trailing text)."""
    row = np.zeros(len(text) + 1, dtype=np.int64)
    for i, base in enumerate(read.codes, start=1):
        previous, row = row, np.empty_like(row)
        row[0] = i
        row[1:] = np.minimum(previous[1:] + 1,
                             previous[:-1] + (text.codes != base))
        for j in range(1, len(row)):
            row[j] = min(row[j], row[j - 1] + 1)
    return int(row.min())


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("A", n_reads=16, read_length=128, n_segments=32,
                         seed=200)


class TestDigitalConsistency:
    """Noiseless hardware must agree exactly with the software kernels."""

    def test_all_exact_kernels_agree_on_dataset_pairs(self, dataset):
        truth = label_dataset(dataset, 8)
        for r, record in enumerate(dataset.reads[:6]):
            for s in range(0, dataset.n_segments, 7):
                segment = DnaSequence(dataset.segments[s])
                dp = edit_distance(segment, record.read)
                assert myers_edit_distance(segment, record.read) == dp
                assert landau_vishkin(segment, record.read, 10) == \
                    min(dp, 11)
                assert (truth.distances[r, s] <= truth.band) == \
                    (dp <= truth.band)

    def test_noiseless_asmcap_equals_noiseless_edam(self, dataset):
        """Same digital matching rule, different analog domain."""
        charge = CamArray(rows=32, cols=128, domain="charge", noisy=False)
        charge.store(dataset.segments)
        edam = EdamMatcher(CamArray(rows=32, cols=128, domain="current",
                                    noisy=False))
        edam.store(dataset.segments)
        for record in dataset.reads:
            for threshold in (1, 4, 8):
                a = charge.search_batch(record.read.codes[None, :],
                                        threshold).matches[0]
                e = edam.match(record.read.codes, threshold).decisions
                assert np.array_equal(a, e)

    def test_cam_match_implies_low_ed_star_not_low_ed(self, dataset):
        """A CAM 'match' bounds ED*, and ED* <= HD, but ED can exceed
        the threshold (that is the FP HDAC exists to fix)."""
        array = CamArray(rows=32, cols=128, noisy=False)
        array.store(dataset.segments)
        threshold = 2
        for record in dataset.reads:
            result = array.search_batch(record.read.codes[None, :],
                                        threshold)
            counts_hd = array.mismatch_counts_batch(
                record.read.codes[None, :], MatchMode.HAMMING)[0]
            for s in np.flatnonzero(result.matches[0]):
                assert result.mismatch_counts[0, s] <= threshold
                assert result.mismatch_counts[0, s] <= counts_hd[s]


class TestMappingAgreesWithAlignment:
    def test_cam_matches_confirmed_by_semiglobal(self, dataset):
        """Rows the CAM matches at a loose threshold must be placements
        semiglobal alignment also scores well."""
        array = CamArray(rows=32, cols=128, noisy=False)
        array.store(dataset.segments)
        for record in dataset.reads[:8]:
            result = array.search_batch(record.read.codes[None, :], 8)
            for s in np.flatnonzero(result.matches[0]):
                segment = DnaSequence(dataset.segments[s])
                assert _semiglobal_distance(record.read, segment) <= 10


class TestSystemLevel:
    """The banked system (Fig. 4(a)) against one array."""

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_strategies_are_bank_independent(self, condition):
        """HDAC and TASR decide per row, so splitting the reference
        over four banks of eight rows leaves every read's rows and
        energy unchanged; each bank issues the read's searches itself."""
        data = build_dataset(condition, n_reads=16, read_length=128,
                             n_segments=32, seed=200)

        def mapped(first_row, n_rows):
            array = CamArray(rows=n_rows, cols=128, noisy=False)
            array.store(data.segments[first_row:first_row + n_rows])
            return ReadMappingPipeline(AsmCapMatcher(
                array, data.model, MatcherConfig())).run_batched(
                    data.reads, threshold=8).mappings

        flat = mapped(0, 32)
        banks = {start: mapped(start, 8) for start in range(0, 32, 8)}
        for q, whole in enumerate(flat):
            parts = {start: bank[q] for start, bank in banks.items()}
            assert whole.matched_rows == tuple(
                start + row for start, part in parts.items()
                for row in part.matched_rows)
            for part in parts.values():
                assert part.outcome.n_searches == whole.outcome.n_searches
            assert sum(part.outcome.energy_joules
                       for part in parts.values()) == pytest.approx(
                whole.outcome.energy_joules, rel=1e-12)


class TestBaselineAccuracyGroundTruth:
    def test_cm_and_resma_are_exact(self, dataset):
        """Both CM baselines decide exactly like the ground truth."""
        cm = CmCpuBaseline()
        resma = ResmaBaseline()
        truth = label_dataset(dataset, 6)
        for r, record in enumerate(dataset.reads[:5]):
            for s in range(0, dataset.n_segments, 11):
                segment = DnaSequence(dataset.segments[s])
                expected = bool(truth.labels(6)[r, s])
                assert cm.match(segment, record.read, 6).decision == expected
                assert resma.match(segment, record.read, 6).decision == \
                    expected


class TestExperimentReproducibility:
    def test_full_experiment_deterministic(self, dataset):
        first = AccuracyExperiment(dataset, [2, 4], seed=9).evaluate(
            "x", asmcap_plain_system
        ).per_threshold
        second = AccuracyExperiment(dataset, [2, 4], seed=9).evaluate(
            "x", asmcap_plain_system
        ).per_threshold
        assert first == second
