"""The count kernel against its boolean oracle on every execution path.

The contract of :mod:`repro.kernels`: the GEMM computes *exactly* the
boolean comparison sweep's counts, so substituting the oracle for it
changes nothing observable — decisions, per-read costs, cost-ledger
views and aggregate reports are exactly equal on the scalar, batched
and sweep paths (and through the streaming service and multi-session
frontend built on them).  The ``oracle`` lane replaces the GEMM at its
one entry, ``repro.kernels.gemm._passes``, with
:func:`~repro.kernels.base._fallback_counts` over each pass's rotated
queries.  Everything here is asserted with ``==`` / ``array_equal``,
never ``approx``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.kernels import gemm
from repro.kernels.base import _fallback_counts
from repro.service.frontend import MappingFrontend
from repro.service.stream import StreamingMappingService

THRESHOLD = 12


@pytest.fixture()
def lanes():
    """The kernel and the oracle lane, as context managers, in that
    order; leaving the oracle lane asserts it answered some pass."""

    @contextlib.contextmanager
    def oracle():
        calls = []

        def oracle_passes(encoded, queries, passes, outs):
            calls.append(len(passes))
            for (ed_star, offset), out in zip(passes, outs, strict=True):
                out[...] = _fallback_counts(
                    encoded.segments, np.roll(queries, -offset, axis=1),
                    ed_star=ed_star)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gemm, "_passes", oracle_passes)
            yield
        assert calls, "the oracle lane counted nothing"

    return (contextlib.nullcontext, oracle)


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


def _matcher(dataset) -> AsmCapMatcher:
    array = CamArray(rows=dataset.n_segments,
                     cols=dataset.read_length,
                     noisy=True, seed=3)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=5)


def _assert_stats_equal(a, b):
    assert a.n_searches == b.n_searches
    assert a.n_rotation_cycles == b.n_rotation_cycles
    assert a.total_energy_joules == b.total_energy_joules
    assert a.total_latency_ns == b.total_latency_ns


def _assert_reports_identical(a, b):
    assert a.n_reads == b.n_reads
    assert a.n_searches == b.n_searches
    assert a.total_energy_joules == b.total_energy_joules
    assert a.total_latency_ns == b.total_latency_ns
    assert len(a.mappings) == len(b.mappings)
    for left, right in zip(a.mappings, b.mappings, strict=True):
        assert left.read_index == right.read_index
        assert left.matched_rows == right.matched_rows


class TestScalarPath:
    def test_search_and_match_identical(self, small_dataset_a, lanes):
        reads = _reads(small_dataset_a)[:6]
        per_lane = []
        for lane in lanes:
            with lane():
                matcher = _matcher(small_dataset_a)
                outcomes = [matcher.match(read, THRESHOLD, query_key=i)
                            for i, read in enumerate(reads)]
            per_lane.append((outcomes, matcher.array.stats))
        (ref_outcomes, ref_stats), (alt_outcomes, alt_stats) = per_lane
        for ref, alt in zip(ref_outcomes, alt_outcomes, strict=True):
            assert np.array_equal(ref.decisions, alt.decisions)
            assert ref.n_searches == alt.n_searches
            assert ref.energy_joules == alt.energy_joules
            assert ref.latency_ns == alt.latency_ns
        _assert_stats_equal(ref_stats, alt_stats)

    def test_raw_counts_identical(self, small_dataset_a, lanes):
        reads = _reads(small_dataset_a)[:4]
        array = _matcher(small_dataset_a).array
        for mode in (MatchMode.ED_STAR, MatchMode.HAMMING):
            counts = []
            for lane in lanes:
                with lane():
                    counts.append((
                        array.mismatch_counts_batch(reads, mode),
                        array.mismatch_counts_batch(
                            reads, mode, rotations=(0, 1, -1, 2)),
                        array.mismatch_counts_batch_dual(reads)))
            (base, rotated, dual), (o_base, o_rotated, o_dual) = counts
            assert np.array_equal(base, o_base)
            assert np.array_equal(rotated, o_rotated)
            assert all(np.array_equal(k, o)
                       for k, o in zip(dual, o_dual, strict=True))


class TestBatchedPath:
    def test_match_batch_identical(self, small_dataset_a, lanes):
        reads = _reads(small_dataset_a)
        outcomes = []
        for lane in lanes:
            with lane():
                outcomes.append(_matcher(small_dataset_a).match_batch(
                    reads, THRESHOLD,
                    query_keys=list(range(reads.shape[0]))))
        ref, alt = outcomes
        assert np.array_equal(ref.decisions, alt.decisions)
        assert np.array_equal(ref.n_searches, alt.n_searches)
        assert np.array_equal(ref.energy_joules, alt.energy_joules)
        assert np.array_equal(ref.latency_ns, alt.latency_ns)
        assert np.array_equal(ref.hdac_mask, alt.hdac_mask)
        assert np.array_equal(ref.tasr_mask, alt.tasr_mask)


class TestSweepPath:
    def test_match_sweep_identical(self, small_dataset_a, lanes):
        reads = _reads(small_dataset_a)[:8]
        thresholds = np.asarray([6, 10, 14], dtype=int)
        outcomes = []
        for lane in lanes:
            with lane():
                outcomes.append(_matcher(small_dataset_a).match_sweep(
                    reads, thresholds))
        ref, alt = outcomes
        assert np.array_equal(ref.decisions, alt.decisions)
        assert np.array_equal(ref.n_searches, alt.n_searches)
        assert np.array_equal(ref.energy_joules, alt.energy_joules)


class TestServicePaths:
    def test_streaming_service_identical(self, small_dataset_a, lanes):
        reads = list(_reads(small_dataset_a))
        reports = []
        for lane in lanes:
            with lane():
                service = StreamingMappingService(
                    small_dataset_a.segments, small_dataset_a.model,
                    threshold=THRESHOLD, micro_batch=5, seed=3,
                )
                service.submit_many(reads)
                reports.append(service.close())
        _assert_reports_identical(reports[0], reports[1])

    def test_frontend_sessions_identical(self, small_dataset_a, lanes):
        reads = list(_reads(small_dataset_a))
        reports = []
        for lane in lanes:
            with lane(), MappingFrontend(small_dataset_a.segments,
                                         small_dataset_a.model) as frontend:
                session = frontend.session(threshold=THRESHOLD, seed=3)
                session.submit_many(reads)
                reports.append(session.close())
            assert frontend.encode_count() == 1
        _assert_reports_identical(reports[0], reports[1])


class TestPipelineBackendProperty:
    def test_batched_pipeline_reports_backend(self, small_dataset_a):
        pipeline = ReadMappingPipeline(_matcher(small_dataset_a))
        assert pipeline.backend == "numpy-gemm"
