"""Service-layer tests for ``shard_engine="process"``.

The streaming service and the multi-session frontend must keep their
bit-identity contracts whichever fan-out engine runs underneath — and
the ``shard_engine`` knob must be validated at every boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CamConfigError, ServiceError
from repro.genome.edits import ErrorModel
from repro.knobs import validate_service_knobs
from repro.service.frontend import MappingFrontend
from repro.service.stream import StreamingMappingService

# Threaded/process stress paths: a deadlock must fail loud in CI,
# not eat the job timeout (inert without the pytest-timeout plugin).
pytestmark = pytest.mark.timeout(120)

THRESHOLD = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    segments = rng.integers(0, 4, size=(48, 80), dtype=np.uint8)
    model = ErrorModel(substitution=0.02, insertion=0.01, deletion=0.01)
    reads = [segments[(i * 5) % 48] for i in range(25)]
    return segments, model, reads


def _reports_identical(a, b) -> None:
    assert a.n_reads == b.n_reads
    assert a.total_energy_joules == b.total_energy_joules
    assert a.total_latency_ns == b.total_latency_ns
    assert ([m.matched_rows for m in a.mappings]
            == [m.matched_rows for m in b.mappings])


class TestStreamingService:
    def _run(self, workload, shard_engine):
        segments, model, reads = workload
        with StreamingMappingService(
                segments, model, threshold=THRESHOLD, engine="sharded",
                n_shards=2, micro_batch=4, seed=3, max_workers=2,
                shard_engine=shard_engine) as service:
            service.submit_many(reads)
            report = service.drain()
            return report, service.stats(), service.shard_engine

    def test_process_stream_is_bit_identical(self, workload):
        thread_report, thread_stats, thread_kind = self._run(workload,
                                                             "thread")
        process_report, process_stats, process_kind = self._run(
            workload, "process")
        assert (thread_kind, process_kind) == ("thread", "process")
        _reports_identical(thread_report, process_report)
        assert process_stats.n_searches == thread_stats.n_searches
        assert process_stats.pass_counts == thread_stats.pass_counts
        assert process_stats.reads_dispatched == \
            thread_stats.reads_dispatched
        # The worker-side folds are visible as observability evidence.
        assert process_stats.ledger_events_folded > 0
        assert process_stats.compactions > 0

    def test_close_releases_process_engine_after_failure(self, workload):
        segments, model, reads = workload
        service = StreamingMappingService(
            segments, model, threshold=THRESHOLD, engine="sharded",
            n_shards=2, micro_batch=4, seed=3, max_workers=1,
            shard_engine="process")
        service.submit_many(reads[:4])  # boots the private engine
        engine = service.pipeline.process_engine()

        def explode(*args, **kwargs):
            raise RuntimeError("array fire")

        service.pipeline.run = explode
        with pytest.raises(RuntimeError, match="array fire"):
            service.submit_many(reads[4:8])
        with pytest.raises(ServiceError, match="dispatch failed"):
            service.close()
        assert engine.closed
        assert service.pipeline.process_engine() is None

    def test_shard_engine_on_batched_engine_rejected(self, workload):
        segments, model, _ = workload
        with pytest.raises(ServiceError, match="sharded"):
            StreamingMappingService(segments, model, threshold=THRESHOLD,
                                    engine="batched",
                                    shard_engine="process")

    def test_batched_service_has_no_shard_engine(self, workload):
        segments, model, _ = workload
        with StreamingMappingService(segments, model,
                                     threshold=THRESHOLD) as service:
            assert service.shard_engine is None

    def test_invalid_shard_engine_rejected(self, workload):
        segments, model, _ = workload
        with pytest.raises(CamConfigError, match="engine"):
            StreamingMappingService(segments, model, threshold=THRESHOLD,
                                    engine="sharded", shard_engine="warp")


class TestKnobValidation:
    def test_engine_knob_names(self):
        validate_service_knobs(engine=None)
        validate_service_knobs(engine="thread")
        validate_service_knobs(engine="process")
        with pytest.raises(CamConfigError, match="engine"):
            validate_service_knobs(engine="fork")


class TestFrontend:
    def _run(self, workload, shard_engine):
        segments, model, reads = workload
        with MappingFrontend(segments, model, engine="sharded",
                             n_shards=2,
                             shard_engine=shard_engine) as frontend:
            first = frontend.session(threshold=THRESHOLD, seed=3,
                                     micro_batch=4)
            second = frontend.session(threshold=THRESHOLD, seed=11,
                                      micro_batch=5)
            first.submit_many(reads)
            second.submit_many(reads[:13])
            reports = (first.close(), second.close())
            return (reports, first.stats(), frontend.shard_engine,
                    frontend.encode_count())

    def test_sessions_bit_identical_across_engines(self, workload):
        thread_run = self._run(workload, "thread")
        process_run = self._run(workload, "process")
        assert (thread_run[2], process_run[2]) == ("thread", "process")
        for thread_report, process_report in zip(thread_run[0],
                                                 process_run[0], strict=True):
            _reports_identical(thread_report, process_report)
        assert process_run[1].n_searches == thread_run[1].n_searches
        assert process_run[1].pass_counts == thread_run[1].pass_counts

    def test_sessions_share_one_process_engine(self, workload):
        segments, model, reads = workload
        with MappingFrontend(segments, model, engine="sharded",
                             n_shards=2,
                             shard_engine="process") as frontend:
            engine = frontend.process_engine()
            assert engine is not None
            first = frontend.session(threshold=THRESHOLD, seed=3,
                                     micro_batch=4)
            second = frontend.session(threshold=THRESHOLD, seed=11,
                                      micro_batch=4)
            assert first.pipeline.process_engine() is engine
            assert second.pipeline.process_engine() is engine
            first.submit_many(reads[:8])
            second.submit_many(reads[:8])
            first.close()
            second.close()
            # One spawn, one share: the encode-once economics extend
            # across every session.
            assert frontend.encode_count() == 2
            assert engine.worker_encode_counts() == tuple(
                0 for _ in range(engine.n_workers)
            )
        assert engine.closed

    def test_shard_engine_on_batched_frontend_rejected(self, workload):
        segments, model, _ = workload
        with pytest.raises(ServiceError, match="sharded"):
            MappingFrontend(segments, model, engine="batched",
                            shard_engine="process")

    def test_batched_frontend_has_no_shard_engine(self, workload):
        segments, model, _ = workload
        with MappingFrontend(segments, model) as frontend:
            assert frontend.shard_engine is None
            assert frontend.process_engine() is None
