"""Multi-session frontend tests: isolation, fairness, backpressure.

The frontend's session-isolation/determinism contract: any session of
a concurrent N-session :class:`~repro.service.MappingFrontend` —
whatever the other sessions do, however the pool schedules, wherever
micro-batch boundaries fall — produces per-read decisions, costs, and
an aggregate report **bit-identical** to a standalone
:class:`~repro.service.StreamingMappingService` with the same seed and
reads.  Plus the service-layer mechanics the tentpole adds: the
reference is encoded once (not per session), scheduling is fair
round-robin, a full backlog blocks its submitter, and
the lifecycle edges (submit-after-close, flush idempotency) behave.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import MappingReport
from repro.cost.events import ReferenceLoad
from repro.errors import CamConfigError, ServiceError, ThresholdError
from repro.genome.datasets import build_dataset
from repro.service import (
    MappingFrontend,
    StreamingMappingService,
)

# Threaded/process stress paths: a deadlock must fail loud in CI,
# not eat the job timeout (inert without the pytest-timeout plugin).
pytestmark = pytest.mark.timeout(120)

THRESHOLD = 3


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


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


def _standalone(dataset, reads, *, seed, micro_batch, threshold,
                compaction) -> MappingReport:
    service = StreamingMappingService(
        dataset.segments, dataset.model, threshold=threshold,
        micro_batch=micro_batch, seed=seed, compaction=compaction,
    )
    service.submit_many(reads)
    return service.close()


def _frontend(dataset, **kwargs) -> MappingFrontend:
    return MappingFrontend(dataset.segments, dataset.model, **kwargs)


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.005)


def _gate_session(session) -> threading.Event:
    """Make the session's engine dispatch wait on the returned event
    (deterministic backlog control for backpressure/fairness tests)."""
    gate = threading.Event()
    pipeline = session.pipeline
    original = pipeline.run_batched

    def gated(*args, **kwargs):
        assert gate.wait(timeout=30.0), "gate never released"
        return original(*args, **kwargs)

    pipeline.run_batched = gated
    return gate


class TestSessionBitIdentity:
    """Concurrent sessions == standalone services, bit for bit."""

    @pytest.mark.parametrize("compaction", [None, 4])
    def test_threaded_sessions_match_standalone(self, small_dataset_a,
                                                compaction):
        """N client threads feed N sessions with randomized submission
        chunks, flushes and micro-batch sizes; every session must
        reproduce its standalone twin exactly."""
        reads = _reads(small_dataset_a)
        rng = np.random.default_rng(42)
        profiles = []
        for index in range(3):
            profiles.append({
                "seed": int(rng.integers(0, 1000)),
                "micro_batch": int(rng.integers(1, 9)),
                "threshold": THRESHOLD + index,
                "chunk_seed": int(rng.integers(0, 2**31 - 1)),
            })
        with _frontend(small_dataset_a, pool_workers=3) as frontend:
            sessions = [
                frontend.session(threshold=p["threshold"], seed=p["seed"],
                                 micro_batch=p["micro_batch"],
                                 compaction=compaction)
                for p in profiles
            ]
            errors = []

            def feed(session, chunk_seed):
                try:
                    feed_rng = np.random.default_rng(chunk_seed)
                    i = 0
                    while i < reads.shape[0]:
                        step = int(feed_rng.integers(1, 7))
                        session.submit_many(reads[i:i + step])
                        if feed_rng.random() < 0.3:
                            session.flush()
                        i += step
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=feed,
                                 args=(session, p["chunk_seed"]))
                for session, p in zip(sessions, profiles, strict=True)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            results = [session.close() for session in sessions]
        for result, p in zip(results, profiles, strict=True):
            reference = _standalone(
                small_dataset_a, reads, seed=p["seed"],
                micro_batch=p["micro_batch"], threshold=p["threshold"],
                compaction=compaction,
            )
            _assert_reports_identical(result, reference)

    def test_single_thread_interleaved_sessions(self, small_dataset_a):
        """Interleaving submissions across sessions from one thread
        does not leak state between them."""
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            a = frontend.session(threshold=THRESHOLD, seed=0,
                                 micro_batch=4)
            b = frontend.session(threshold=THRESHOLD, seed=0,
                                 micro_batch=4)
            for read in reads:
                a.submit(read)
                b.submit(read)
            ra, rb = a.close(), b.close()
        # Same seed + same reads -> the two sessions agree exactly...
        _assert_reports_identical(ra, rb)
        # ...and both equal the standalone service.
        reference = _standalone(small_dataset_a, reads,
                                seed=0, micro_batch=4,
                                threshold=THRESHOLD, compaction=64)
        _assert_reports_identical(ra, reference)

    def test_session_stats_match_standalone(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=6, compaction=2)
            session.submit_many(reads)
            session.close()
            snap = session.stats()
            merged = session.merged_stats()
        standalone = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=6, seed=0, compaction=2,
        )
        standalone.submit_many(reads)
        standalone.close()
        assert merged == standalone.merged_stats()
        their_snap = standalone.stats()
        assert snap.reads_dispatched == their_snap.reads_dispatched
        assert snap.n_searches == their_snap.n_searches
        assert snap.pass_counts == their_snap.pass_counts
        assert snap.total_energy_joules == their_snap.total_energy_joules
        assert snap.compactions > 0


class TestSharedEncoding:
    def test_reference_encoded_once_across_sessions(self,
                                                    small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            assert frontend.encode_count() == 1
            sessions = [frontend.session(threshold=THRESHOLD, seed=s)
                        for s in range(4)]
            for session in sessions:
                session.submit_many(reads)
                session.close()
            # Four sessions served; still exactly one encode.
            assert frontend.encode_count() == 1
            # The reference load lives in the frontend ledger, once —
            # never in the per-session ledgers.
            assert len(frontend.ledger.of_type(ReferenceLoad)) == 1
            for session in sessions:
                for ledger in session.ledgers():
                    assert not ledger.of_type(ReferenceLoad)

    def test_sessions_borrow_the_same_reference_objects(self,
                                                        small_dataset_a):
        with _frontend(small_dataset_a) as frontend:
            a = frontend.session(threshold=THRESHOLD, seed=0)
            b = frontend.session(threshold=THRESHOLD, seed=1)
            array_a = a.pipeline.matcher.array
            array_b = b.pipeline.matcher.array
            assert array_a.stored is frontend.stored_references[0]
            assert array_b.stored is frontend.stored_references[0]
            assert array_a is not array_b
            assert array_a.ledger is not array_b.ledger


def _reference_loads(ledger) -> int:
    """ReferenceLoad events in a ledger, folded checkpoint included."""
    n = len(ledger.of_type(ReferenceLoad))
    if ledger.checkpoint is not None:
        n += ledger.checkpoint.n_reference_loads
    return n


def _feed_concurrently(clients, reads) -> None:
    """Feed every client the whole read block, one thread each."""
    errors = []

    def feed(client):
        try:
            client.submit_many(reads)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=feed, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "feeder thread hung"
    assert not errors


@pytest.mark.slow
class TestFrontendSoak:
    """The nightly soak: 8 concurrent sessions x 12.5k condition-B
    reads over one frontend, against 8 standalone services fed the
    same way."""

    N_SESSIONS = 8
    N_READS = 12_500

    @pytest.mark.timeout(600)
    def test_encoded_once_and_sessions_match_standalone(self):
        dataset = build_dataset("B", n_reads=self.N_READS, read_length=96,
                                n_segments=64, seed=0)
        reads = _reads(dataset)
        with MappingFrontend(dataset.segments, dataset.model) as frontend:
            sessions = [frontend.session(threshold=6, seed=s,
                                         micro_batch=256)
                        for s in range(self.N_SESSIONS)]
            _feed_concurrently(sessions, reads)
            results = [session.close() for session in sessions]
            assert frontend.encode_count() == 1
            assert _reference_loads(frontend.ledger) == 1
            for session in sessions:
                for ledger in session.ledgers():
                    assert _reference_loads(ledger) == 0

        services = [StreamingMappingService(
            dataset.segments, dataset.model, threshold=6, micro_batch=256,
            seed=s) for s in range(self.N_SESSIONS)]
        _feed_concurrently(services, reads)
        references = [service.close() for service in services]
        # Each standalone service pays its own encode.
        assert sum(service.pipeline.matcher.array.stored.n_encodes
                   for service in services) == self.N_SESSIONS
        assert sum(_reference_loads(ledger) for service in services
                   for ledger in service.ledgers()) == self.N_SESSIONS
        for result, reference in zip(results, references, strict=True):
            _assert_reports_identical(result, reference)


class TestLifecycle:
    def test_submit_after_session_close_raises(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=4)
            session.submit_many(reads[:5])
            first = session.close()
            assert session.closed
            _assert_reports_identical(session.close(), first)  # idempotent
            with pytest.raises(ServiceError):
                session.submit(reads[0])
            with pytest.raises(ServiceError):
                session.flush()
            with pytest.raises(ServiceError):
                session.drain()
            # Other sessions are unaffected.
            other = frontend.session(threshold=THRESHOLD, seed=1,
                                     micro_batch=4)
            other.submit_many(reads[:5])
            assert other.close().n_reads == 5

    def test_flush_is_idempotent(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=16)
            session.submit_many(reads[:5])
            assert session.flush() == 5
            assert session.flush() == 0  # nothing buffered: a no-op
            assert session.flush() == 0
            report = session.drain()
            assert report.n_reads == 5
            _assert_reports_identical(session.drain(), report)

    def test_drain_keeps_session_open(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=4)
            session.submit_many(reads[:3])
            assert session.drain().n_reads == 3
            session.submit_many(reads[3:6])
            assert session.close().n_reads == 6

    def test_frontend_close_is_idempotent_and_final(self,
                                                    small_dataset_a):
        reads = _reads(small_dataset_a)
        frontend = _frontend(small_dataset_a)
        session = frontend.session(threshold=THRESHOLD, seed=0,
                                   micro_batch=4)
        session.submit_many(reads[:6])
        frontend.close()
        assert frontend.closed
        frontend.close()  # idempotent
        # Close drained the in-flight work before stopping workers.
        assert session.closed
        assert session.report.n_reads == 6
        with pytest.raises(ServiceError):
            frontend.session(threshold=THRESHOLD)
        with pytest.raises(ServiceError):
            session.submit(reads[0])

    def test_close_race_raises_instead_of_hanging(self, small_dataset_a):
        """Regression: a session that slipped past frontend.close()'s
        drain sweep (opened concurrently) used to block forever in
        close()/drain() waiting on workers that had already exited; it
        must raise ServiceError when it still holds in-flight reads,
        and close cleanly when it does not."""
        reads = _reads(small_dataset_a)
        frontend = _frontend(small_dataset_a)
        undrained = frontend.session(threshold=THRESHOLD, seed=0,
                                     micro_batch=16)
        idle = frontend.session(threshold=THRESHOLD, seed=1,
                                micro_batch=16)
        undrained.submit_many(reads[:3])  # buffered, below micro-batch
        # Simulate the race: stop the workers exactly as close() does,
        # but without the drain sweep that normally precedes it.
        with frontend._lock:
            frontend._running = False
            frontend._work.notify_all()
            frontend._backlog_free.notify_all()
            for session in frontend._sessions:
                session._idle.notify_all()
        for thread in frontend._threads:
            thread.join()
        with pytest.raises(ServiceError):
            undrained.close()
        assert idle.close().n_reads == 0  # no work in flight: clean

    def test_submits_racing_close_raise_instead_of_stalling_it(
            self, small_dataset_a):
        """Regression: close() drains before marking the session
        closed; a feeder racing it must be refused (ServiceError) so
        it cannot refill the queue and keep the drain from ever
        terminating."""
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a, pool_workers=1) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=1)
            gate = _gate_session(session)
            session.submit(reads[0])
            _wait_until(lambda: session._executing)
            closer = threading.Thread(target=session.close)
            closer.start()
            _wait_until(lambda: session._closing)
            with pytest.raises(ServiceError):
                session.submit(reads[1])  # close in progress: refused
            gate.set()
            closer.join(timeout=10.0)
            assert not closer.is_alive()
            assert session.closed
            assert session.report.n_reads == 1

    def test_autotuned_backlog_scales_with_pool_workers_override(
            self, small_dataset_a):
        with _frontend(small_dataset_a, pool_workers=16) as frontend:
            assert frontend.max_backlog == 32

    def test_session_reports_are_safe_to_mutate(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=4)
            session.submit_many(reads)
            drained = session.drain()
            drained.mappings.clear()
            drained.n_reads = -1
            final = session.close()
            assert final.n_reads == reads.shape[0]
            assert len(final.mappings) == reads.shape[0]

    def test_rejects_bad_reads_and_knobs(self, small_dataset_a):
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0)
            with pytest.raises(CamConfigError):
                session.submit(np.zeros(3, dtype=np.uint8))
            with pytest.raises(CamConfigError):
                frontend.session(threshold=THRESHOLD, micro_batch=0)
            with pytest.raises(CamConfigError):
                frontend.session(threshold=THRESHOLD, compaction=0)
            with pytest.raises(CamConfigError):
                frontend.session(threshold=THRESHOLD, backend="no-such")
        with pytest.raises(ServiceError):
            MappingFrontend(small_dataset_a.segments,
                            small_dataset_a.model, pool_workers=0)

    def test_negative_threshold_rejected_before_any_read(
            self, small_dataset_a):
        """Regression: a negative threshold was accepted and only
        poisoned the session at its first dispatch, deep in HDAC."""
        with _frontend(small_dataset_a) as frontend:
            with pytest.raises(ThresholdError, match="non-negative"):
                frontend.session(-1)
            assert frontend.sessions == ()

    def test_failed_dispatch_surfaces_on_the_session(self,
                                                     small_dataset_a):
        """An engine failure poisons only its own session: waiters get
        a ServiceError instead of hanging, others keep working."""
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            broken = frontend.session(threshold=THRESHOLD, seed=0,
                                      micro_batch=2)
            healthy = frontend.session(threshold=THRESHOLD, seed=1,
                                       micro_batch=4)

            def explode(*args, **kwargs):
                raise RuntimeError("array fire")

            broken.pipeline.run_batched = explode
            broken.submit_many(reads[:2])  # queues a batch that fails
            with pytest.raises(ServiceError):
                broken.drain()
            with pytest.raises(ServiceError):
                broken.submit(reads[0])
            healthy.submit_many(reads)
            assert healthy.close().n_reads == reads.shape[0]


class TestBackpressure:
    def test_full_backlog_blocks_until_a_worker_frees_a_slot(
            self, small_dataset_a):
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a, pool_workers=1,
                       max_backlog=2) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=1)
            gate = _gate_session(session)
            session.submit(reads[0])
            _wait_until(lambda: session._executing)
            session.submit(reads[1])
            session.submit(reads[2])

            feeder = threading.Thread(target=session.submit,
                                      args=(reads[3],))
            feeder.start()
            time.sleep(0.1)
            assert feeder.is_alive()  # blocked on the full backlog
            gate.set()
            feeder.join(timeout=10.0)
            assert not feeder.is_alive()
            assert session.close().n_reads == 4


class TestFairScheduling:
    def test_round_robin_interleaves_sessions(self, small_dataset_a):
        """With one worker, a heavy session's queue must not starve a
        light one: completions interleave round-robin."""
        reads = _reads(small_dataset_a)
        order: "list[str]" = []
        log_lock = threading.Lock()
        with _frontend(small_dataset_a, pool_workers=1,
                       max_backlog=16) as frontend:
            heavy = frontend.session(threshold=THRESHOLD, seed=0,
                                     micro_batch=1)
            light = frontend.session(threshold=THRESHOLD, seed=1,
                                     micro_batch=1)
            gate = threading.Event()

            def wrap(session, label):
                original = session.pipeline.run_batched

                def logged(*args, **kwargs):
                    assert gate.wait(timeout=30.0)
                    with log_lock:
                        order.append(label)
                    return original(*args, **kwargs)

                session.pipeline.run_batched = logged

            wrap(heavy, "heavy")
            wrap(light, "light")
            heavy.submit_many(reads[:6])   # 6 queued micro-batches
            light.submit_many(reads[:2])   # 2 queued micro-batches
            gate.set()
            heavy.close()
            light.close()
        # The light session's two batches run interleaved with the
        # heavy queue (round-robin), not after it.
        assert order.count("light") == 2 and order.count("heavy") == 6
        assert "light" in order[:3]
        assert order.index("light", order.index("light") + 1) <= 4
