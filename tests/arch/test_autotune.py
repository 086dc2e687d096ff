"""Tests for shard/chunk autotuning."""

from __future__ import annotations

import threading
import time

import pytest

from repro.arch import autotune
from repro.arch.autotune import (
    ENCODED_BYTES_PER_CELL,
    MAX_CHUNK_READS,
    MIN_CHUNK_READS,
    MIN_ROWS_PER_SHARD,
    MIN_SERVICE_BACKLOG,
    ShardPlan,
    available_cpus,
    estimate_stored_reference_bytes,
    plan_backend,
    plan_microbatch,
    plan_service_pool,
    plan_shards,
    sweep_worker_count,
)
from repro.errors import ArchConfigError
from repro.core.pipeline import ShardedReadMappingPipeline
from repro.genome.datasets import build_dataset


class TestPlanShards:
    def test_deterministic_given_inputs(self):
        a = plan_shards(1024, 256, cpu_count=8)
        b = plan_shards(1024, 256, cpu_count=8)
        assert a == b

    def test_never_more_shards_than_cpus(self):
        assert plan_shards(10_000, 256, cpu_count=4).n_shards <= 4

    def test_small_reference_stays_single_shard(self):
        """A reference below one shard quantum must not be split."""
        plan = plan_shards(MIN_ROWS_PER_SHARD, 256, cpu_count=16)
        assert plan.n_shards == 1

    def test_shards_scale_with_reference(self):
        small = plan_shards(64, 256, cpu_count=16).n_shards
        large = plan_shards(16 * MIN_ROWS_PER_SHARD, 256,
                            cpu_count=16).n_shards
        assert large >= small
        assert large == 16

    def test_shards_never_exceed_rows(self):
        assert plan_shards(2, 8, cpu_count=64).n_shards <= 2

    def test_chunk_size_bounds(self):
        for rows in (32, 1024, 1 << 20):
            for cols in (16, 256, 4096):
                plan = plan_shards(rows, cols, cpu_count=8)
                assert MIN_CHUNK_READS <= plan.chunk_size <= MAX_CHUNK_READS

    def test_wider_segments_shrink_chunks(self):
        narrow = plan_shards(1024, 64, cpu_count=4).chunk_size
        wide = plan_shards(1024, 16384, cpu_count=4).chunk_size
        assert wide <= narrow

    def test_workers_capped_by_shards_and_cpus(self):
        plan = plan_shards(1 << 16, 256, cpu_count=6)
        assert plan.max_workers <= plan.n_shards
        assert plan.max_workers <= 6

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            plan_shards(0, 256)
        with pytest.raises(ArchConfigError):
            plan_shards(128, 0)

    def test_plan_is_frozen(self):
        plan = plan_shards(128, 128, cpu_count=2)
        assert isinstance(plan, ShardPlan)
        with pytest.raises(AttributeError):
            plan.n_shards = 3


class TestPlanMicrobatch:
    def test_bounds(self):
        for rows in (8, 256, 1 << 18):
            for cols in (16, 256, 4096):
                batch = plan_microbatch(rows, cols)
                assert MIN_CHUNK_READS <= batch <= MAX_CHUNK_READS

    def test_deterministic(self):
        assert plan_microbatch(512, 256) == plan_microbatch(512, 256)

    def test_bigger_reference_shrinks_batches(self):
        small = plan_microbatch(1 << 12, 64)
        large = plan_microbatch(1 << 20, 64)
        assert large <= small

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            plan_microbatch(0, 64)
        with pytest.raises(ArchConfigError):
            plan_microbatch(64, 0)


class TestPlanServicePool:
    def test_one_worker_per_core(self):
        plan = plan_service_pool(cpu_count=6)
        assert plan.n_workers == 6
        assert plan.max_backlog == 12

    def test_pinned_workers_size_the_backlog(self):
        plan = plan_service_pool(16, cpu_count=2)
        assert plan.n_workers == 16
        assert plan.max_backlog == 32
        assert plan_service_pool(1, cpu_count=2).max_backlog == \
            MIN_SERVICE_BACKLOG

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            plan_service_pool(0)


class TestSweepWorkers:
    def test_capped_by_runs(self):
        assert sweep_worker_count(2, cpu_count=64) == 2

    def test_capped_by_cpus(self):
        assert sweep_worker_count(64, cpu_count=3) == 3

    def test_at_least_one(self):
        assert sweep_worker_count(1, cpu_count=1) == 1

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            sweep_worker_count(0)

    def test_available_cpus_floor(self):
        assert available_cpus(0) == 1
        assert available_cpus() >= 1


class TestEstimateStoredReferenceBytes:
    def test_matches_the_encoded_payload(self):
        import numpy as np

        from repro.cam.array import StoredReference
        from repro.kernels import encoded_reference_arrays

        segments = np.zeros((24, 40), dtype=np.uint8)
        payload = sum(array.nbytes for _, array in encoded_reference_arrays(
            StoredReference.encode(segments).encoded()))
        assert estimate_stored_reference_bytes(24, 40) == payload \
            == 24 * 40 * ENCODED_BYTES_PER_CELL

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            estimate_stored_reference_bytes(0, 64)
        with pytest.raises(ArchConfigError):
            estimate_stored_reference_bytes(64, 0)


class TestPipelineIntegration:
    def test_autotuned_pipeline_matches_explicit(self):
        """n_shards=None resolves to the plan and stays bit-identical
        to an explicitly configured pipeline with the same plan."""
        dataset = build_dataset("A", n_reads=8, read_length=96,
                                n_segments=64, seed=4)
        reads = [r.read.codes for r in dataset.reads]
        auto = ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=None,
            chunk_size=None, seed=0,
        )
        plan = plan_shards(64, 96)
        assert auto.n_shards == plan.n_shards
        explicit = ShardedReadMappingPipeline(
            dataset.segments, dataset.model, n_shards=plan.n_shards,
            chunk_size=plan.chunk_size, seed=0,
        )
        report_auto = auto.run(reads, threshold=8)
        report_explicit = explicit.run(reads, threshold=8)
        for a, b in zip(report_auto.mappings, report_explicit.mappings, strict=True):
            assert a.matched_rows == b.matched_rows


class TestPlanBackendRace:
    def test_concurrent_first_callers_calibrate_once(self, monkeypatch):
        """Eight threads racing on an empty cache run one calibration
        and all receive the backend it picked."""
        calls = []

        def counting_calibration():
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return {"numpy-gemm": 2.0, "faster-lane": 1.0}

        monkeypatch.setattr(autotune, "_PLANNED_BACKEND", None)
        monkeypatch.setattr(autotune, "calibrate_kernel_backends",
                            counting_calibration)
        barrier = threading.Barrier(8, timeout=10)
        picked = []

        def worker():
            barrier.wait()
            picked.append(plan_backend())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert picked == ["faster-lane"] * 8
