"""Multi-session frontend tests: isolation, one executor, lifecycle.

The frontend's session-isolation/determinism contract: any session of
a concurrent N-session :class:`~repro.service.MappingFrontend` —
whatever the other sessions do, however their feeds interleave,
wherever micro-batch boundaries fall — produces per-read decisions,
costs, and an aggregate report **bit-identical** to a standalone
:class:`~repro.service.StreamingMappingService` with the same seed and
reads.  Plus the service-layer mechanics: the reference is encoded
once (not per session), the frontend starts no thread (each session
runs on the thread that feeds it), a ``drain``/``close`` from another
thread waits for the batch in flight and batches fold in key order,
and the lifecycle edges (submit-after-close, flush idempotency, close
racing ``session()`` or a feeder) behave.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cam.array import StoredReference
from repro.core.pipeline import MappingReport
from repro.cost.events import ReferenceLoad
from repro.errors import CamConfigError, ServiceError, ThresholdError
from repro.genome.datasets import build_dataset
from repro.refstore import ReferenceCatalog
from repro.service import (
    MappingFrontend,
    StreamingMappingService,
)
from repro.service import frontend as frontend_module

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


def _standalone(dataset, reads, *, seed, micro_batch,
                threshold) -> MappingReport:
    service = StreamingMappingService(
        dataset.segments, dataset.model, threshold=threshold,
        micro_batch=micro_batch, seed=seed,
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


def _gate_session(session) -> "tuple[threading.Event, threading.Event]":
    """Hold the session's engine calls until the first returned event
    is set; the second is set once a call is held (deterministic
    control of a batch in flight for the lifecycle race tests)."""
    gate, entered = threading.Event(), threading.Event()
    pipeline = session.pipeline
    original = pipeline.run_batched

    def gated(*args, **kwargs):
        entered.set()
        assert gate.wait(timeout=30.0), "gate never released"
        return original(*args, **kwargs)

    pipeline.run_batched = gated
    return gate, entered


def _run_in_thread(call) -> "tuple[threading.Thread, dict]":
    """Start *call* on a new thread; its result or error lands in the
    returned dict."""
    out: dict = {}

    def run():
        try:
            out["result"] = call()
        except BaseException as exc:  # noqa: BLE001 - asserted by the test
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, out


class TestSessionBitIdentity:
    """Concurrent sessions == standalone services, bit for bit."""

    @pytest.mark.parametrize("micro_batch", [4, None])
    def test_threaded_sessions_match_standalone(self, small_dataset_a,
                                                micro_batch):
        """N client threads feed N sessions with randomized submission
        chunks and flushes; every session must reproduce its
        standalone twin exactly, with pinned micro-batch sizes (a
        different one per session) or autotuned ones."""
        reads = _reads(small_dataset_a)
        rng = np.random.default_rng(42)
        profiles = []
        for index in range(3):
            profiles.append({
                "seed": int(rng.integers(0, 1000)),
                "micro_batch": (None if micro_batch is None
                                else micro_batch + index),
                "threshold": THRESHOLD + index,
                "chunk_seed": int(rng.integers(0, 2**31 - 1)),
            })
        with _frontend(small_dataset_a) as frontend:
            sessions = [
                frontend.session(threshold=p["threshold"], seed=p["seed"],
                                 micro_batch=p["micro_batch"])
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
                                threshold=THRESHOLD)
        _assert_reports_identical(ra, reference)

    def test_session_stats_match_standalone(self, small_dataset_a):
        # One read per micro-batch, three passes over the reads: enough
        # ledger events for the service bound to fold.
        reads = np.concatenate([_reads(small_dataset_a)] * 3)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=1)
            session.submit_many(reads)
            session.close()
            snap = session.stats()
            merged = session.merged_stats()
        standalone = StreamingMappingService(
            small_dataset_a.segments, small_dataset_a.model,
            threshold=THRESHOLD, micro_batch=1, seed=0,
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
                assert _reference_loads(session.pipeline.ledger) == 0

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
        n += ledger.checkpoint.event_counts.get("ReferenceLoad", 0)
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
                assert _reference_loads(session.pipeline.ledger) == 0

        services = [StreamingMappingService(
            dataset.segments, dataset.model, threshold=6, micro_batch=256,
            seed=s) for s in range(self.N_SESSIONS)]
        _feed_concurrently(services, reads)
        references = [service.close() for service in services]
        # Each standalone service pays its own encode.
        assert sum(service.pipeline.matcher.array.stored.n_encodes
                   for service in services) == self.N_SESSIONS
        assert sum(_reference_loads(service.pipeline.ledger)
                   for service in services) == self.N_SESSIONS
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
        # Close drained the buffered reads before releasing the
        # reference.
        assert session.closed
        assert session.report.n_reads == 6
        with pytest.raises(ServiceError):
            frontend.session(threshold=THRESHOLD)
        with pytest.raises(ServiceError):
            session.submit(reads[0])

    def test_close_race_raises_instead_of_hanging(self, small_dataset_a,
                                                  monkeypatch):
        """Regression: a session() racing frontend.close() could slip
        past close's drain sweep and be left open.  close() now refuses
        new sessions before it closes the open ones, so it finishes
        while the racing call is still building its engine, and that
        call then raises ServiceError instead of returning a session
        nothing will close."""
        reads = _reads(small_dataset_a)
        frontend = _frontend(small_dataset_a)
        buffered = frontend.session(threshold=THRESHOLD, seed=0,
                                    micro_batch=16)
        buffered.submit_many(reads[:3])  # below a micro-batch
        building, release = threading.Event(), threading.Event()
        original = frontend_module.build_pipeline

        def held(*args, **kwargs):
            building.set()
            assert release.wait(timeout=30.0), "build never released"
            return original(*args, **kwargs)

        monkeypatch.setattr(frontend_module, "build_pipeline", held)
        racer, out = _run_in_thread(
            lambda: frontend.session(threshold=THRESHOLD, seed=1))
        assert building.wait(timeout=10.0)
        frontend.close()  # does not wait for the racing session()
        release.set()
        racer.join(timeout=10.0)
        assert not racer.is_alive()
        assert isinstance(out.get("error"), ServiceError)
        assert frontend.sessions == (buffered,)
        assert buffered.closed and buffered.report.n_reads == 3

    def test_submits_racing_close_raise_instead_of_stalling_it(
            self, small_dataset_a):
        """Regression: close() refuses new feeds before it waits for
        the batch in flight; a feeder racing it is refused
        (ServiceError) once that batch has folded in, so it cannot
        keep the drain from ever starting."""
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=0,
                                       micro_batch=1)
            gate, entered = _gate_session(session)
            feeder, fed = _run_in_thread(lambda: session.submit(reads[0]))
            assert entered.wait(timeout=10.0)  # read 0 is in the engine
            closer, closed = _run_in_thread(session.close)
            _wait_until(lambda: session._closing)
            late, refused = _run_in_thread(lambda: session.submit(reads[1]))
            gate.set()
            for thread in (feeder, closer, late):
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert "error" not in fed and "error" not in closed
            assert isinstance(refused.get("error"), ServiceError)
            assert session.closed
            assert session.report.n_reads == 1
            _assert_reports_identical(closed["result"], _standalone(
                small_dataset_a, reads[:1], seed=0, micro_batch=1,
                threshold=THRESHOLD))

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
                frontend.session(threshold=THRESHOLD, micro_batch=-2)

    def test_negative_threshold_rejected_before_any_read(
            self, small_dataset_a):
        """Regression: a negative threshold was accepted and only
        poisoned the session at its first dispatch, deep in HDAC."""
        with _frontend(small_dataset_a) as frontend:
            with pytest.raises(ThresholdError, match="non-negative"):
                frontend.session(-1)
            assert frontend.sessions == ()

    def test_dropped_sessions_are_collected(self, small_dataset_a):
        """Regression: the frontend held every session it ever opened,
        so each closed session's engine (arrays, matcher, compacting
        ledger) stayed alive for the frontend's lifetime."""
        reads = _reads(small_dataset_a)
        with _frontend(small_dataset_a) as frontend:
            refs = []
            for seed in range(10):
                session = frontend.session(threshold=THRESHOLD, seed=seed,
                                           micro_batch=4)
                session.submit_many(reads)
                session.close()
                refs.append(weakref.ref(session))
                del session
            gc.collect()
            assert [ref() for ref in refs] == [None] * 10
            assert frontend.sessions == ()
            # The open order keeps counting past collected sessions.
            assert frontend.session(threshold=THRESHOLD).index == 10

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
            # The feeding thread runs the batch: it sees the engine's
            # own error, every later call a ServiceError.
            with pytest.raises(RuntimeError, match="array fire"):
                broken.submit_many(reads[:2])
            with pytest.raises(ServiceError):
                broken.drain()
            with pytest.raises(ServiceError):
                broken.submit(reads[0])
            healthy.submit_many(reads)
            assert healthy.close().n_reads == reads.shape[0]


class TestOneExecutor:
    """Every session runs on the thread that feeds it: the frontend
    starts no thread, a lifecycle call from another thread waits for
    the batch in flight, and batches fold in key order."""

    def test_frontend_starts_no_thread(self, small_dataset_a):
        reads = _reads(small_dataset_a)
        before = threading.active_count()
        with _frontend(small_dataset_a) as frontend:
            assert threading.active_count() == before
            sessions = [frontend.session(threshold=THRESHOLD, seed=s,
                                         micro_batch=4) for s in range(3)]
            assert threading.active_count() == before
            for session in sessions:
                session.submit_many(reads)
                assert threading.active_count() == before
                assert session.drain().n_reads == reads.shape[0]
            assert frontend.pool_workers == 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("call", ["drain", "close"])
    def test_lifecycle_call_waits_for_the_batch_in_flight(
            self, small_dataset_a, call):
        reads = _reads(small_dataset_a)[:4]
        with _frontend(small_dataset_a) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=2,
                                       micro_batch=4)
            gate, entered = _gate_session(session)
            feeder, fed = _run_in_thread(lambda: session.submit_many(reads))
            assert entered.wait(timeout=10.0)
            caller, out = _run_in_thread(getattr(session, call))
            time.sleep(0.1)
            assert caller.is_alive()  # the batch has not folded in yet
            gate.set()
            for thread in (feeder, caller):
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert fed == {"result": 4} and "error" not in out
        _assert_reports_identical(out["result"], _standalone(
            small_dataset_a, reads, seed=2, micro_batch=4,
            threshold=THRESHOLD))

    def test_batches_fold_in_key_order_under_concurrent_flushes(
            self, small_dataset_a):
        """Three threads flushing and draining while the client feeds
        (more threads than cores, short switch interval) cut the stream
        at arbitrary points; every batch still takes its keys and folds
        in submission order, so the report equals the standalone
        twin's."""
        reads = np.concatenate([_reads(small_dataset_a)] * 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _frontend(small_dataset_a) as frontend:
                session = frontend.session(threshold=THRESHOLD, seed=5,
                                           micro_batch=3)
                stop = threading.Event()

                def cut_until_stopped(cut):
                    while not stop.is_set():
                        cut()

                cutters = [_run_in_thread(lambda cut=cut: cut_until_stopped(cut))
                           for cut in (session.flush, session.flush,
                                       session.drain)]
                try:
                    for read in reads:
                        session.submit(read)
                finally:
                    stop.set()
                    for thread, _ in cutters:
                        thread.join(timeout=10.0)
                        assert not thread.is_alive()
                assert all("error" not in out for _, out in cutters)
                report = session.close()
        finally:
            sys.setswitchinterval(interval)
        assert [m.read_index for m in report.mappings] == \
            list(range(reads.shape[0]))
        _assert_reports_identical(report, _standalone(
            small_dataset_a, reads, seed=5, micro_batch=3,
            threshold=THRESHOLD))

    def test_close_racing_session_leaves_no_session_running(
            self, small_dataset_a, tmp_path):
        """A client opening sessions in a loop while the frontend
        closes: every session it got is closed by the time close()
        returns and the catalog lease is released; its next call is
        refused."""
        catalog = ReferenceCatalog()
        catalog.store("ref", StoredReference.encode(small_dataset_a.segments),
                      tmp_path / "ref.asmcap")
        frontend = MappingFrontend(None, small_dataset_a.model,
                                   catalog=catalog)
        opened = []
        start = threading.Barrier(2, timeout=10.0)

        def open_until_refused():
            start.wait()
            while True:
                opened.append(frontend.session(THRESHOLD, reference="ref"))

        opener, out = _run_in_thread(open_until_refused)
        start.wait()
        frontend.close()
        opener.join(timeout=10.0)
        assert not opener.is_alive()
        assert isinstance(out.get("error"), ServiceError)
        assert all(session.closed for session in opened)
        assert catalog.stats().pinned_count == 0
        catalog.close()
