"""Cross-backend bit-identity on every execution path.

The contract of the kernel registry: swapping the backend knob changes
*nothing observable* — decisions, per-read costs, cost-ledger views
and aggregate reports are exactly equal on the scalar, batched and
sweep paths (and through the streaming service and multi-session
frontend built on them).  The GEMM lane is compared with
the boolean-reference test lane of ``conftest.py``, so each path is
checked against the reference count semantics end to end.  Everything
here is asserted with ``==`` / ``array_equal``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import ReadMappingPipeline
from repro.service.frontend import MappingFrontend
from repro.service.stream import StreamingMappingService

THRESHOLD = 12


@pytest.fixture()
def backends(reference_lane) -> "tuple[str, str]":
    """The GEMM lane and the boolean-reference lane, in that order."""
    return ("numpy-gemm", reference_lane)


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


def _matcher(dataset, backend: str) -> AsmCapMatcher:
    array = CamArray(rows=dataset.n_segments,
                     cols=dataset.read_length,
                     noisy=True, seed=3, backend=backend)
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
    def test_search_and_match_identical(self, small_dataset_a, backends):
        reads = _reads(small_dataset_a)[:6]
        per_backend = []
        for backend in backends:
            matcher = _matcher(small_dataset_a, backend)
            outcomes = [matcher.match(read, THRESHOLD, query_key=i)
                        for i, read in enumerate(reads)]
            per_backend.append((outcomes, matcher.array.stats))
        (ref_outcomes, ref_stats), (alt_outcomes, alt_stats) = per_backend
        for ref, alt in zip(ref_outcomes, alt_outcomes, strict=True):
            assert np.array_equal(ref.decisions, alt.decisions)
            assert ref.n_searches == alt.n_searches
            assert ref.energy_joules == alt.energy_joules
            assert ref.latency_ns == alt.latency_ns
        _assert_stats_equal(ref_stats, alt_stats)

    def test_raw_counts_identical(self, small_dataset_a, backends):
        reads = _reads(small_dataset_a)[:4]
        for mode in (MatchMode.ED_STAR, MatchMode.HAMMING):
            counts = [
                _matcher(small_dataset_a, b).array.mismatch_counts_batch(
                    reads, mode)
                for b in backends
            ]
            assert np.array_equal(counts[0], counts[1])


class TestBatchedPath:
    def test_match_batch_identical(self, small_dataset_a, backends):
        reads = _reads(small_dataset_a)
        outcomes = []
        for backend in backends:
            matcher = _matcher(small_dataset_a, backend)
            outcomes.append(matcher.match_batch(
                reads, THRESHOLD, query_keys=list(range(reads.shape[0]))
            ))
        ref, alt = outcomes
        assert np.array_equal(ref.decisions, alt.decisions)
        assert np.array_equal(ref.n_searches, alt.n_searches)
        assert np.array_equal(ref.energy_joules, alt.energy_joules)
        assert np.array_equal(ref.latency_ns, alt.latency_ns)
        assert np.array_equal(ref.hdac_mask, alt.hdac_mask)
        assert np.array_equal(ref.tasr_mask, alt.tasr_mask)


class TestSweepPath:
    def test_match_sweep_identical(self, small_dataset_a, backends):
        reads = _reads(small_dataset_a)[:8]
        thresholds = np.asarray([6, 10, 14], dtype=int)
        outcomes = []
        for backend in backends:
            matcher = _matcher(small_dataset_a, backend)
            outcomes.append(matcher.match_sweep(reads, thresholds))
        ref, alt = outcomes
        assert np.array_equal(ref.decisions, alt.decisions)
        assert np.array_equal(ref.n_searches, alt.n_searches)
        assert np.array_equal(ref.energy_joules, alt.energy_joules)


class TestServicePaths:
    def test_streaming_service_identical(self, small_dataset_a, backends):
        reads = list(_reads(small_dataset_a))
        reports = []
        for backend in backends:
            service = StreamingMappingService(
                small_dataset_a.segments, small_dataset_a.model,
                threshold=THRESHOLD, micro_batch=5, seed=3,
                backend=backend,
            )
            assert service.backend == backend
            service.submit_many(reads)
            reports.append(service.close())
        _assert_reports_identical(reports[0], reports[1])

    def test_frontend_sessions_identical(self, small_dataset_a, backends):
        reads = list(_reads(small_dataset_a))
        reports = []
        for backend in backends:
            with MappingFrontend(small_dataset_a.segments,
                                 small_dataset_a.model,
                                 backend=backend) as frontend:
                session = frontend.session(threshold=THRESHOLD, seed=3)
                session.submit_many(reads)
                reports.append(session.close())
            assert frontend.encode_count() == 1
        _assert_reports_identical(reports[0], reports[1])

    def test_session_backend_override(self, small_dataset_a, backends):
        reads = list(_reads(small_dataset_a))
        with MappingFrontend(small_dataset_a.segments,
                             small_dataset_a.model,
                             backend="numpy-gemm") as frontend:
            default = frontend.session(threshold=THRESHOLD, seed=3)
            other = frontend.session(threshold=THRESHOLD, seed=3,
                                     backend=backends[1])
            assert default.pipeline.backend == "numpy-gemm"
            assert other.pipeline.backend == backends[1]
            default.submit_many(reads)
            other.submit_many(reads)
            _assert_reports_identical(default.close(), other.close())


class TestPipelineBackendProperty:
    def test_batched_pipeline_reports_backend(self, small_dataset_a, backends):
        for backend in backends:
            pipeline = ReadMappingPipeline(_matcher(small_dataset_a, backend))
            assert pipeline.backend == backend
