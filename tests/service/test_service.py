"""Streaming-service tests: determinism, lifecycle, observability.

The service's determinism contract: a streamed session — any
micro-batch boundaries, any mix of ``submit`` / ``submit_many`` /
``flush`` calls — is **bit-identical** to one one-shot
``run_batched`` execution over the same reads with the same seed:
per-read decisions, per-read costs, and the
aggregate report.  The service's ledger folds every pass as it is
recorded and keeps none: its counters equal the one-shot twin's, and
no recorded count block outlives its micro-batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.autotune import plan_microbatch
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import MappingReport, ReadMappingPipeline
from repro.cost.views import search_stats
from repro.errors import CamConfigError, ServiceError, ThresholdError
from repro.genome.datasets import build_dataset
from repro.service import StreamingMappingService, stream_mapped
from oracles import watch_count_blocks

THRESHOLD = 3


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


def _pipeline(dataset, seed=0) -> ReadMappingPipeline:
    """The one-shot engine, built as the service builds its own."""
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    return ReadMappingPipeline(
        AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=seed)
    )


def _one_shot_batched(dataset, reads, seed=0,
                      threshold=THRESHOLD) -> MappingReport:
    return _pipeline(dataset, seed).run_batched(reads, threshold)


def _micro_batch_twin(dataset, reads, micro_batch, seed=0,
                     threshold=THRESHOLD) -> ReadMappingPipeline:
    """The service's micro-batches run one by one on a one-shot
    pipeline: the twin of a streamed session's ledger."""
    pipeline = _pipeline(dataset, seed)
    for begin in range(0, reads.shape[0], micro_batch):
        pipeline.run_batched(reads[begin:begin + micro_batch], threshold,
                             first_read_index=begin)
    return pipeline


def _assert_reports_identical(ours: MappingReport,
                              theirs: MappingReport) -> None:
    assert ours.n_reads == theirs.n_reads
    assert ours.n_mapped == theirs.n_mapped
    assert ours.n_unique == theirs.n_unique
    assert ours.n_searches == theirs.n_searches
    assert ours.total_energy_joules == theirs.total_energy_joules
    assert ours.total_latency_ns == theirs.total_latency_ns
    for a, b in zip(ours.mappings, theirs.mappings, strict=True):
        assert a.read_index == b.read_index
        assert a.matched_rows == b.matched_rows
        assert a.outcome.energy_joules == b.outcome.energy_joules
        assert a.outcome.latency_ns == b.outcome.latency_ns
        assert a.outcome.n_searches == b.outcome.n_searches


class TestStreamedBitIdentity:
    """Streamed == one-shot, for any micro-batch boundaries."""

    def test_fixed_boundaries(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=5, seed=0,
        )
        service.submit_many(reads)
        _assert_reports_identical(service.close(), reference)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_randomized_boundaries(self, small_dataset_a, boundary_seed):
        """Any chunking of the feed reproduces the one-shot report."""
        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        rng = np.random.default_rng(boundary_seed)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD,
            micro_batch=int(rng.integers(1, 9)), seed=0,
        )
        i = 0
        while i < reads.shape[0]:
            step = int(rng.integers(1, 7))
            service.submit_many(reads[i:i + step])
            if rng.random() < 0.3:
                service.flush()
            i += step
        _assert_reports_identical(service.close(), reference)

    def test_single_submits_equal_bulk(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        one_by_one = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=4, seed=0,
        )
        for read in reads:
            one_by_one.submit(read)
        bulk = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=4, seed=0,
        )
        bulk.submit_many(iter(reads))
        _assert_reports_identical(one_by_one.close(), bulk.close())

    def test_compaction_does_not_perturb_results(self, small_dataset_a):
        # One read per micro-batch, three passes over the reads: the
        # ledger folds every pass as it is recorded, and its counters
        # equal the one-shot twin's.
        reads = np.concatenate([_reads(small_dataset_a)] * 3)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=1, seed=0,
        )
        service.submit_many(reads)
        _assert_reports_identical(service.close(),
                                  _one_shot_batched(small_dataset_a, reads))
        twin = _micro_batch_twin(small_dataset_a, reads, micro_batch=1)
        assert service.merged_stats() == search_stats(twin.ledger)
        assert service.stats().pass_counts == twin.ledger.pass_counts()


@pytest.mark.slow
class TestStreamSoak:
    """The nightly soak: 100k condition-B reads at T = 6, so every
    micro-batch issues ED* plus 2·NR TASR passes."""

    N_READS = 100_000
    MICRO_BATCH = 512

    def test_no_pass_outlives_its_batch_and_report_matches_one_shot(self):
        dataset = build_dataset("B", n_reads=self.N_READS, read_length=96,
                                n_segments=32, seed=0)
        reads = _reads(dataset)
        service = StreamingMappingService(
            dataset.segments, dataset.model, threshold=6,
            micro_batch=self.MICRO_BATCH, seed=0,
        )
        watched = watch_count_blocks(service.pipeline.ledger)
        for begin in range(0, reads.shape[0], self.MICRO_BATCH):
            service.submit_many(reads[begin:begin + self.MICRO_BATCH])
            # Flat memory: the ledger kept none of a full batch's
            # passes (the last, partial batch runs at close).
            assert watched or begin + self.MICRO_BATCH > reads.shape[0]
            assert all(block() is None for block in watched)
            watched.clear()
        report = service.close()
        assert watched
        assert all(block() is None for block in watched)

        # Determinism: the stream == the one-shot run, and its
        # counters == the micro-batch twin's.
        reference = _one_shot_batched(dataset, reads, threshold=6)
        _assert_reports_identical(report, reference)
        twin = _micro_batch_twin(dataset, reads, self.MICRO_BATCH,
                                 threshold=6)
        assert service.merged_stats() == search_stats(twin.ledger)
        assert service.stats().pass_counts == twin.ledger.pass_counts()


class TestLifecycle:
    def _service(self, dataset, **kwargs):
        kwargs.setdefault("micro_batch", 8)
        return StreamingMappingService(
            dataset.segments, dataset.model, threshold=THRESHOLD,
            seed=0, **kwargs,
        )

    def test_buffer_and_flush(self, small_dataset_a):
        service = self._service(small_dataset_a)
        reads = _reads(small_dataset_a)
        service.submit_many(reads[:5])  # below the micro-batch size
        snap = service.stats()
        assert snap.reads_submitted == 5
        assert snap.reads_in_flight == 5
        assert snap.reads_dispatched == 0
        assert service.flush() == 5
        snap = service.stats()
        assert snap.reads_in_flight == 0
        assert snap.reads_dispatched == 5
        assert snap.batches_dispatched == 1

    def test_drains_share_the_per_read_objects(self, small_dataset_a):
        """Each drained snapshot is a list of its own over the same
        frozen ``ReadMapping`` objects, not a rebuilt copy of them."""
        service = self._service(small_dataset_a)
        service.submit_many(_reads(small_dataset_a)[:20])
        first, second = service.drain(), service.drain()
        assert first.mappings is not second.mappings
        assert first.mappings[0] is second.mappings[0]
        assert first.mappings[-1] is service.report.mappings[-1]
        assert service.last_batch_mappings[0] is first.mappings[16]

    def test_drain_keeps_service_open(self, small_dataset_a):
        service = self._service(small_dataset_a)
        reads = _reads(small_dataset_a)
        service.submit_many(reads[:3])
        report = service.drain()
        assert report.n_reads == 3
        service.submit_many(reads[3:6])  # still open
        assert service.close().n_reads == 6

    def test_close_is_idempotent_and_final(self, small_dataset_a):
        service = self._service(small_dataset_a)
        reads = _reads(small_dataset_a)
        service.submit_many(reads[:5])
        first = service.close()
        assert service.closed
        # Repeated closes dispatch nothing further and agree exactly
        # (each call returns a fresh defensive snapshot, so identity
        # is deliberately NOT guaranteed).
        _assert_reports_identical(service.close(), first)
        with pytest.raises(ServiceError):
            service.submit(reads[0])
        with pytest.raises(ServiceError):
            service.flush()
        with pytest.raises(ServiceError):
            service.drain()

    def test_context_manager_closes(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with self._service(small_dataset_a) as service:
            service.submit_many(reads[:5])
        assert service.closed
        assert service.report.n_reads == 5

    def test_rejects_bad_reads_and_config(self, small_dataset_a):
        service = self._service(small_dataset_a)
        with pytest.raises(CamConfigError):
            service.submit(np.zeros(3, dtype=np.uint8))
        with pytest.raises(CamConfigError):
            self._service(small_dataset_a, micro_batch=0)

    def test_returned_reports_are_safe_to_mutate(self, small_dataset_a):
        """Regression: drain()/close()/report used to return the live
        internal MappingReport, so a caller clearing its mappings list
        corrupted the service aggregates and broke the streamed ==
        one-shot bit-identity contract."""
        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=4, seed=0,
        )
        service.submit_many(reads[:8])
        drained = service.drain()
        # A hostile/naive caller post-processes the result in place.
        drained.mappings.clear()
        drained.n_reads = -1
        mid = service.report
        assert mid.n_reads == 8
        assert len(mid.mappings) == 8
        mid.mappings.clear()
        service.submit_many(reads[8:])
        final = service.close()
        _assert_reports_identical(final, reference)
        # And mutating the final snapshot does not perturb later reads.
        final.mappings.clear()
        _assert_reports_identical(service.close(), reference)

    def test_rejects_falsy_knobs(self, small_dataset_a):
        """Regression: a falsy knob must fail at the service boundary
        (the shared CamConfigError knob gate), not deep inside a lower
        layer."""
        with pytest.raises(CamConfigError):
            self._service(small_dataset_a, micro_batch=0)
        with pytest.raises(CamConfigError):
            self._service(small_dataset_a, micro_batch=-3)

    def test_retain_mappings_false_bounds_results(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        retained = self._service(small_dataset_a, micro_batch=4)
        dropped = self._service(small_dataset_a, micro_batch=4,
                                retain_mappings=False)
        for service in (retained, dropped):
            service.submit_many(reads)
            service.close()
        assert not dropped.report.mappings
        assert len(retained.report.mappings) == reads.shape[0]
        # Aggregate totals fold identically either way.
        assert (dropped.report.total_energy_joules
                == retained.report.total_energy_joules)
        assert dropped.report.n_mapped == retained.report.n_mapped


class TestObservability:
    def test_stats_snapshot(self, small_dataset_a):
        reads = np.concatenate([_reads(small_dataset_a)] * 3)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=1, seed=0,
        )
        service.submit_many(reads)
        service.close()
        snap = service.stats()
        assert snap.reads_dispatched == reads.shape[0]
        assert snap.reads_in_flight == 0
        assert snap.micro_batch == 1
        assert snap.reads_mapped == service.report.n_mapped
        assert snap.n_searches == service.merged_stats().n_searches
        assert snap.pass_counts.get("EdStarPass", 0) > 0
        assert snap.total_energy_joules > 0.0
        assert snap.wall_seconds > 0.0
        assert snap.reads_per_second > 0.0

    def test_autotuned_micro_batch(self, small_dataset_a):
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, seed=0,
        )
        assert service.micro_batch == plan_microbatch(
            small_dataset_a.segments.shape[0],
            small_dataset_a.read_length,
        )


class TestStreamMapped:
    def test_yields_all_mappings_in_order(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=7, seed=0,
        )
        mappings = list(stream_mapped(service, iter(reads)))
        assert len(mappings) == reads.shape[0]
        for ours, theirs in zip(mappings, reference.mappings, strict=True):
            assert ours.read_index == theirs.read_index
            assert ours.matched_rows == theirs.matched_rows

    def test_bounded_memory_with_dropped_mappings(self, small_dataset_a):
        """retain_mappings=False + stream_mapped: every result is
        still yielded, but nothing accumulates in the service."""
        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=7, seed=0,
            retain_mappings=False,
        )
        mappings = []
        for mapping in stream_mapped(service, iter(reads)):
            mappings.append(mapping)
            # The aggregate report never retains per-read results...
            assert not service.report.mappings
            # ...and the hand-off buffer holds at most one batch.
            assert len(service.last_batch_mappings) <= 7
        assert len(mappings) == reads.shape[0]
        for ours, theirs in zip(mappings, reference.mappings, strict=True):
            assert ours.read_index == theirs.read_index
            assert ours.matched_rows == theirs.matched_rows
        assert service.report.total_energy_joules \
            == reference.total_energy_joules


def _fail_on_call(pipeline, method: str, failing_call: int) -> "list[int]":
    """Make ``pipeline.<method>`` raise on its *failing_call*-th call
    (1-based); returns the ``first_read_index`` of every call."""
    original = getattr(pipeline, method)
    keys: "list[int]" = []

    def flaky(*args, **kwargs):
        keys.append(kwargs["first_read_index"])
        if len(keys) == failing_call:
            raise RuntimeError("array fire")
        return original(*args, **kwargs)

    setattr(pipeline, method, flaky)
    return keys


class TestEngineFailure:
    def test_failed_dispatch_is_sticky(self, small_dataset_a):
        """Regression: an engine error after the buffer swap dropped
        that micro-batch silently, and the next batch was keyed from
        the stale dispatch count (stream reads 32-47 as reads 16-31)
        while stats() reported nothing in flight."""
        reads = np.concatenate([_reads(small_dataset_a)] * 3)[:64]
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=16, seed=0,
        )
        keys = _fail_on_call(service.pipeline, "run_batched", 2)
        with pytest.raises(RuntimeError, match="array fire"):
            service.submit_many(reads)
        snap = service.stats()
        assert (snap.reads_submitted, snap.reads_dispatched) == (32, 16)
        assert snap.reads_in_flight == 16  # the lost batch stays visible
        for call in (lambda: service.submit(reads[32]), service.flush,
                     service.drain):
            with pytest.raises(ServiceError, match="dispatch failed") \
                    as info:
                call()
            assert isinstance(info.value.__cause__, RuntimeError)
        assert keys == [0, 16]  # nothing ran at a stale offset
        assert service.stats().reads_submitted == 32
        with pytest.raises(ServiceError):
            service.close()
        assert service.closed

    def test_poisoned_read_leaves_the_service_usable(self,
                                                     small_dataset_a):
        """A fault at the dispatch hook fires before the buffer swap:
        the reads stay buffered and the next dispatch runs them once."""
        from repro.faults import Fault, FaultPlan, arm

        reads = _reads(small_dataset_a)
        reference = _one_shot_batched(small_dataset_a, reads)
        service = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=4, seed=0,
        )
        plan = FaultPlan.of(
            Fault("poisoned_read", "service.stream.dispatch", 1))
        with arm(plan):
            with pytest.raises(CamConfigError, match="injected"):
                service.submit_many(reads)
            assert service.stats().reads_in_flight == 4
            service.submit_many(reads[8:])
        _assert_reports_identical(service.close(), reference)


class TestThresholdValidation:
    def test_negative_threshold_rejected_at_construction(
            self, small_dataset_a):
        """A threshold outside ``0..N`` would fail only at the first
        full micro-batch, poisoning the session; it is refused here."""
        n = small_dataset_a.read_length
        for threshold in (-1, n + 1):
            with pytest.raises(ThresholdError, match=rf"0\.\.{n}"):
                StreamingMappingService(
                    small_dataset_a.segments, small_dataset_a.model,
                    threshold=threshold, micro_batch=4,
                )

