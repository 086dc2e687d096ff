"""Tests for micro-batch autotuning, the sweep-worker shim and the
cached kernel calibration."""

from __future__ import annotations

import threading
import time

import pytest

from repro.arch import autotune
from repro.arch.autotune import (
    MAX_CHUNK_READS,
    MIN_CHUNK_READS,
    plan_backend,
    plan_microbatch,
    sweep_worker_count,
)
from repro.errors import ArchConfigError


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


class TestSweepWorkers:
    def test_at_least_one(self):
        """The shim plans one worker for any run count."""
        assert [sweep_worker_count(n) for n in (1, 3, 64)] == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ArchConfigError):
            sweep_worker_count(0)


class TestPlanBackendRace:
    def test_concurrent_first_callers_calibrate_once(self, monkeypatch):
        """Eight threads racing on an empty cache run one calibration
        and all receive the one kernel's name."""
        calls = []

        def counting_calibration():
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return 1.0

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
        assert picked == ["numpy-gemm"] * 8
