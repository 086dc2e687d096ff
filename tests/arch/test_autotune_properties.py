"""Property tests for the autotune planners.

Hypothesis sweeps the planner domains for the invariants the rest of
the stack leans on: never zero workers, micro-batches inside the
working-set bound, and monotone responses to growing references and
machines.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.arch.autotune import (  # noqa: E402
    MAX_CHUNK_READS,
    MIN_CHUNK_READS,
    MIN_SERVICE_BACKLOG,
    plan_microbatch,
    plan_service_pool,
    sweep_worker_count,
)
from repro.constants import CHUNK_ELEMS  # noqa: E402

#: Timing-free pure functions; the default deadline only buys flakes
#: on loaded CI machines.
settings.register_profile("autotune", deadline=None)
settings.load_profile("autotune")

n_rows_s = st.integers(min_value=1, max_value=1 << 20)
cols_s = st.integers(min_value=1, max_value=4096)
cpus_s = st.integers(min_value=1, max_value=256)
workers_s = st.integers(min_value=1, max_value=128)


class TestPlanMicrobatch:
    @given(n_rows=n_rows_s, cols=cols_s)
    def test_bounded(self, n_rows, cols):
        batch = plan_microbatch(n_rows, cols)
        assert MIN_CHUNK_READS <= batch <= MAX_CHUNK_READS

    @given(n_rows=n_rows_s, cols=cols_s)
    def test_within_working_set_bound(self, n_rows, cols):
        batch = plan_microbatch(n_rows, cols)
        # Inside the clamp band the element budget holds exactly; at
        # the lower clamp the budget is allowed to overflow (tiny
        # batches would cost more than the memory they save).
        if batch > MIN_CHUNK_READS:
            assert batch * max(n_rows, cols * 4) <= CHUNK_ELEMS

    @given(n_rows=st.integers(min_value=1, max_value=(1 << 20) - 1),
           cols=cols_s)
    def test_nonincreasing_in_rows(self, n_rows, cols):
        # Bigger references -> per-read footprint grows -> batches
        # shrink (or stay put); never the other way.
        assert plan_microbatch(n_rows + 1, cols) <= \
            plan_microbatch(n_rows, cols)


class TestPlanServicePool:
    @given(n_workers=st.none() | workers_s, cpus=cpus_s)
    def test_never_zero_workers(self, n_workers, cpus):
        plan = plan_service_pool(n_workers, cpu_count=cpus)
        assert plan.n_workers >= 1
        assert plan.max_backlog >= MIN_SERVICE_BACKLOG
        assert plan.max_backlog == max(MIN_SERVICE_BACKLOG,
                                       2 * plan.n_workers)

    @given(n_workers=workers_s, cpus=cpus_s)
    def test_pinned_worker_count_is_kept(self, n_workers, cpus):
        # The backlog follows a pinned count, not the core budget.
        assert plan_service_pool(n_workers,
                                 cpu_count=cpus).n_workers == n_workers

    @given(cpus=st.integers(min_value=1, max_value=255))
    def test_workers_monotone_in_cpus(self, cpus):
        assert plan_service_pool(cpu_count=cpus + 1).n_workers >= \
            plan_service_pool(cpu_count=cpus).n_workers


class TestSweepWorkers:
    @given(n_runs=st.integers(min_value=1, max_value=4096),
           cpus=cpus_s)
    def test_bounded_by_runs_and_cpus(self, n_runs, cpus):
        workers = sweep_worker_count(n_runs, cpu_count=cpus)
        assert 1 <= workers <= min(n_runs, cpus)
