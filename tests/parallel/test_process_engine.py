"""Tests for the process shard engine and the pipeline integration.

The binding invariant under test: for **any** worker count and any
scheduling, ``engine="process"`` produces decisions, per-read costs
and reports bit-identical to ``engine="thread"`` — and failure modes
(dead worker, task error, closed engine) surface as clear
:class:`~repro.errors.ServiceError`\\ s, never as hangs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.arch import autotune
from repro.core.pipeline import (
    ShardedReadMappingPipeline,
    encode_shard_references,
)
from repro.errors import CamConfigError, LedgerCompactionError, ServiceError
from repro.genome.edits import ErrorModel
from repro.kernels import get_backend
from repro.parallel import ProcessShardEngine, ShardTask

# Threaded/process stress paths: a deadlock must fail loud in CI,
# not eat the job timeout (inert without the pytest-timeout plugin).
pytestmark = pytest.mark.timeout(120)

THRESHOLD = 8


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    segments = rng.integers(0, 4, size=(48, 80), dtype=np.uint8)
    model = ErrorModel(substitution=0.02, insertion=0.01, deletion=0.01)
    reads = [segments[(i * 5) % 48] for i in range(25)]
    return segments, model, reads


def _reports_identical(a, b) -> None:
    assert a.n_reads == b.n_reads
    assert a.n_mapped == b.n_mapped
    assert a.n_unique == b.n_unique
    assert a.n_searches == b.n_searches
    assert a.total_energy_joules == b.total_energy_joules
    assert a.total_latency_ns == b.total_latency_ns
    for left, right in zip(a.mappings, b.mappings, strict=True):
        assert left.read_index == right.read_index
        assert left.matched_rows == right.matched_rows
        assert left.outcome.energy_joules == right.outcome.energy_joules
        assert left.outcome.latency_ns == right.outcome.latency_ns
        np.testing.assert_array_equal(left.outcome.decisions,
                                      right.outcome.decisions)


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_worker_count_invariance(self, workload, n_workers):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="thread") as thread_pipe:
            baseline = thread_pipe.run(reads, THRESHOLD)
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=n_workers) as process_pipe:
            assert process_pipe.engine == "process"
            report = process_pipe.run(reads, THRESHOLD)
            _reports_identical(baseline, report)

    @pytest.mark.parametrize("compaction", [None, 16])
    def test_compaction_invariance(self, workload, compaction):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                ledger_compaction=compaction,
                engine="thread") as thread_pipe:
            baseline = thread_pipe.run(reads, THRESHOLD)
            thread_stats = thread_pipe.merged_stats()
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                ledger_compaction=compaction,
                engine="process", max_workers=2) as process_pipe:
            report = process_pipe.run(reads, THRESHOLD)
            process_stats = process_pipe.merged_stats()
        _reports_identical(baseline, report)
        # Integer counters are exact; the float totals group their
        # additions per worker task instead of per event, so they
        # agree to float precision, not bit-for-bit.
        assert process_stats.n_searches == thread_stats.n_searches
        assert (process_stats.n_rotation_cycles
                == thread_stats.n_rotation_cycles)
        assert process_stats.total_energy_joules == pytest.approx(
            thread_stats.total_energy_joules, rel=1e-12)
        assert process_stats.total_latency_ns == pytest.approx(
            thread_stats.total_latency_ns, rel=1e-12)

    def test_map_read_parity(self, workload):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=2) as pipe:
            batch = pipe.run(reads[:4], THRESHOLD)
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=2) as pipe:
            single = pipe.map_read(reads[2], THRESHOLD, index=2)
        assert single.matched_rows == batch.mappings[2].matched_rows
        assert (single.outcome.energy_joules
                == batch.mappings[2].outcome.energy_joules)

    def test_prebuilt_shards_match_raw_matrix(self, workload):
        segments, model, reads = workload
        shards, chunk = encode_shard_references(segments, n_shards=2,
                                                chunk_size=8)
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=2) as raw_pipe:
            raw = raw_pipe.run(reads, THRESHOLD)
        with ShardedReadMappingPipeline(
                shards, model, n_shards=None, seed=5, chunk_size=chunk,
                engine="process", max_workers=2) as shared_pipe:
            shared = shared_pipe.run(reads, THRESHOLD)
        _reports_identical(raw, shared)


class TestLedgerViews:
    def test_merged_ledger_raises_on_process_engine(self, workload):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=1) as pipe:
            pipe.run(reads[:8], THRESHOLD)
            with pytest.raises(LedgerCompactionError,
                               match="process boundary"):
                pipe.merged_ledger()

    def test_ledger_observability_counts_worker_folds(self, workload):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="thread") as pipe:
            pipe.run(reads, THRESHOLD)
            thread_counts = pipe.ledger_observability()[0]
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=2) as pipe:
            pipe.run(reads, THRESHOLD)
            (pass_counts, live, folded, population,
             compactions) = pipe.ledger_observability()
        # Same physical passes ran, whichever side of the process
        # boundary recorded them.
        assert pass_counts == thread_counts
        assert folded > 0
        # ceil(25 / 8) chunks x 2 shards worker-side folds.
        assert compactions == 8
        # Only the broadcast ledger stays live in the parent.
        assert live == 4
        assert population == 0


class TestWorkerBackendResolution:
    def test_env_var_reaches_workers(self, workload, monkeypatch):
        segments, model, reads = workload
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy-gemm")
        planned_before = autotune._PLANNED_BACKEND
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=2) as pipe:
            report = pipe.run(reads, THRESHOLD)
            engine = pipe.process_engine()
            assert engine.worker_backends() == ("numpy-gemm", "numpy-gemm")
            assert engine.worker_encode_counts() == (0, 0)
        # The spawn must not have perturbed the parent's backend plan.
        assert autotune._PLANNED_BACKEND == planned_before
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="thread") as thread_pipe:
            _reports_identical(thread_pipe.run(reads, THRESHOLD), report)

    def test_explicit_backend_name_reaches_tasks(self, workload):
        segments, model, reads = workload
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="process", max_workers=1,
                backend="numpy-gemm") as pipe:
            report = pipe.run(reads[:8], THRESHOLD)
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5, chunk_size=8,
                engine="thread", backend="numpy-gemm") as thread_pipe:
            _reports_identical(thread_pipe.run(reads[:8], THRESHOLD),
                               report)

    def test_backend_instance_rejected(self, workload):
        segments, model, _ = workload
        with pytest.raises(CamConfigError, match="registry name"):
            ShardedReadMappingPipeline(
                segments, model, n_shards=2, engine="process",
                backend=get_backend("numpy-gemm"),
            )


class TestEngineLifecycle:
    def test_engine_is_lazy_and_close_respawns(self, workload):
        segments, model, reads = workload
        pipe = ShardedReadMappingPipeline(
            segments, model, n_shards=2, seed=5, chunk_size=8,
            engine="process", max_workers=1)
        try:
            assert pipe.process_engine() is None
            first = pipe.run(reads[:8], THRESHOLD)
            engine = pipe.process_engine()
            assert engine is not None and engine.started
            pipe.close()
            assert engine.closed
            assert pipe.process_engine() is None
            # The pipeline stays usable: a later run spawns a fresh
            # pool, and the keyed streams keep it bit-identical.
            again = pipe.run(reads[:8], THRESHOLD)
            _reports_identical(first, again)
        finally:
            pipe.close()

    def test_closed_engine_refuses_work(self, workload):
        segments, model, _ = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        engine = ProcessShardEngine(shards, n_workers=1)
        engine.close()
        with pytest.raises(ServiceError, match="closed"):
            engine.run_tasks([])

    def test_double_close_is_idempotent(self, workload):
        segments, model, _ = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        engine = ProcessShardEngine(shards, n_workers=1)
        engine.start()
        engine.close()
        engine.close()
        assert engine.closed

    def test_requires_sealed_shards_and_workers(self, workload):
        segments, model, _ = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        with pytest.raises(CamConfigError, match="at least one shard"):
            ProcessShardEngine(())
        with pytest.raises(CamConfigError, match="n_workers"):
            ProcessShardEngine(shards, n_workers=0)

    def test_injected_engine_must_match(self, workload):
        segments, model, _ = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        engine = ProcessShardEngine(shards, n_workers=1)
        try:
            with pytest.raises(CamConfigError, match="resolved"):
                ShardedReadMappingPipeline(
                    segments, model, n_shards=2, engine="thread",
                    process_engine=engine)
            with pytest.raises(CamConfigError, match="shards"):
                ShardedReadMappingPipeline(
                    segments, model, n_shards=3, engine="process",
                    process_engine=engine)
            pipe = ShardedReadMappingPipeline(
                segments, model, n_shards=2, engine="process",
                process_engine=engine)
            assert not pipe.owns_process_engine
            pipe.close()
            # close() leaves the injected engine to its owner.
            assert not engine.closed
        finally:
            engine.close()

    def test_concurrent_callers_are_serialised(self, workload):
        """Frontend sessions share one engine across dispatch threads;
        concurrent run_tasks calls must never drain each other's
        results (regression: unserialised calls interleaved on the
        single result queue and hung)."""
        segments, model, reads = workload
        shards, _ = encode_shard_references(segments, n_shards=2)

        def tasks_for(seed: int) -> "list[ShardTask]":
            return [
                ShardTask(shard_index=s,
                          codes=np.asarray(reads[seed])[None, :],
                          keys=(seed,), threshold=THRESHOLD, seed=seed,
                          config=None, error_model=model)
                for s in range(2)
            ]

        with ProcessShardEngine(shards, n_workers=2) as engine:
            expected = {seed: engine.run_tasks(tasks_for(seed))
                        for seed in (1, 2, 3)}
            raced: "dict[int, list]" = {}
            failures: "list[Exception]" = []

            def drive(seed: int) -> None:
                try:
                    for _ in range(3):
                        raced[seed] = engine.run_tasks(tasks_for(seed))
                except Exception as exc:  # pragma: no cover - fail loud
                    failures.append(exc)

            threads = [threading.Thread(target=drive, args=(seed,))
                       for seed in (1, 2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            for seed in (1, 2, 3):
                for (got, _), (want, _) in zip(raced[seed],
                                               expected[seed], strict=True):
                    np.testing.assert_array_equal(got.decisions,
                                                  want.decisions)
                    assert got.energy_joules == want.energy_joules
                    assert got.latency_ns == want.latency_ns


class TestFailureModes:
    def test_killed_worker_raises_not_hangs(self, workload):
        segments, model, reads = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        engine = ProcessShardEngine(shards, n_workers=1)
        try:
            engine.start()
            (pid,) = engine.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            task = ShardTask(shard_index=0,
                             codes=np.asarray(reads[0])[None, :],
                             keys=(0,), threshold=THRESHOLD, seed=5,
                             config=None, error_model=model)
            with pytest.raises(ServiceError, match="died with exit code"):
                engine.run_tasks([task])
            assert time.monotonic() < deadline
            assert engine.broken
            with pytest.raises(ServiceError, match="broken"):
                engine.run_tasks([task])
        finally:
            engine.close()

    def test_task_error_embeds_traceback_and_keeps_engine(self, workload):
        segments, model, reads = workload
        shards, _ = encode_shard_references(segments, n_shards=2)
        engine = ProcessShardEngine(shards, n_workers=1)
        try:
            bad = ShardTask(shard_index=0,
                            codes=np.zeros((1, 3), dtype=np.uint8),
                            keys=(0,), threshold=THRESHOLD, seed=5,
                            config=None, error_model=model)
            with pytest.raises(ServiceError,
                               match="failed in a worker process"):
                engine.run_tasks([bad])
            assert not engine.broken
            good = ShardTask(shard_index=0,
                             codes=np.asarray(reads[0])[None, :],
                             keys=(0,), threshold=THRESHOLD, seed=5,
                             config=None, error_model=model)
            (outcome, summary), = engine.run_tasks([good])
            assert outcome.decisions.shape[0] == 1
            assert summary.stats.n_searches >= 1
        finally:
            engine.close()


class TestNoLeaks:
    def test_no_resource_tracker_warnings(self, workload, tmp_path):
        """A full create/run/close cycle plus an *abandoned* engine
        must leave no shared-memory segments and print no
        ``resource_tracker`` leak noise at interpreter exit."""
        script = tmp_path / "leak_probe.py"
        script.write_text(textwrap.dedent("""
            import gc
            import numpy as np

            def main():
                from repro.core.pipeline import ShardedReadMappingPipeline
                from repro.genome.edits import ErrorModel
                rng = np.random.default_rng(7)
                segments = rng.integers(0, 4, size=(48, 80),
                                        dtype=np.uint8)
                model = ErrorModel(substitution=0.02, insertion=0.01,
                                   deletion=0.01)
                reads = [segments[i] for i in range(6)]
                pipe = ShardedReadMappingPipeline(
                    segments, model, n_shards=2, seed=5, chunk_size=8,
                    engine="process", max_workers=1)
                pipe.run(reads, 8)
                names = [owner.name
                         for owner in pipe.process_engine()._owners]
                pipe.close()
                from multiprocessing import shared_memory
                for name in names:
                    try:
                        shared_memory.SharedMemory(name=name).close()
                    except FileNotFoundError:
                        pass
                    else:
                        raise SystemExit(f"segment {name} survived close")
                # Abandon a second engine entirely: the finalize guard
                # must unlink at garbage collection / interpreter exit.
                pipe = ShardedReadMappingPipeline(
                    segments, model, n_shards=2, seed=5, chunk_size=8,
                    engine="process", max_workers=1)
                pipe.run(reads, 8)
                del pipe
                gc.collect()
                print("LEAK-PROBE-OK")

            if __name__ == "__main__":
                main()
        """))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True,
            text=True, timeout=300, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "LEAK-PROBE-OK" in result.stdout
        assert "resource_tracker" not in result.stderr
        assert "leaked" not in result.stderr


class TestEngineResolution:
    def test_env_var_selects_process(self, workload, monkeypatch):
        segments, model, reads = workload
        monkeypatch.setenv(autotune.ENGINE_ENV, "process")
        with ShardedReadMappingPipeline(
                segments, model, n_shards=2, seed=5,
                chunk_size=8, max_workers=1) as pipe:
            assert pipe.engine == "process"
            assert pipe.run(reads[:4], THRESHOLD).n_reads == 4

    def test_env_var_rejects_unknown(self, workload, monkeypatch):
        segments, model, _ = workload
        monkeypatch.setenv(autotune.ENGINE_ENV, "warp")
        with pytest.raises(CamConfigError, match="engine"):
            ShardedReadMappingPipeline(segments, model, n_shards=2)

    def test_knob_rejects_unknown(self, workload):
        segments, model, _ = workload
        with pytest.raises(CamConfigError, match="engine"):
            ShardedReadMappingPipeline(segments, model, n_shards=2,
                                       engine="warp")

    def test_default_resolution_on_small_host_is_thread(self, workload,
                                                        monkeypatch):
        segments, model, _ = workload
        monkeypatch.delenv(autotune.ENGINE_ENV, raising=False)
        # This reference is tiny and the plan is CPU-gated, so the
        # autotuned default must stay on threads (backward compatible).
        with ShardedReadMappingPipeline(segments, model,
                                        n_shards=2) as pipe:
            assert pipe.engine == autotune.plan_engine(
                segments.shape[0], segments.shape[1], n_shards=2)
