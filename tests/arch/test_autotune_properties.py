"""Property tests for the autotune planners.

Hypothesis sweeps the planner domains for the invariants the rest of
the stack leans on: micro-batches inside the working-set bound, a
monotone response to growing references, and the sweep-worker shim's
one worker.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.arch.autotune import (  # noqa: E402
    MAX_CHUNK_READS,
    MIN_CHUNK_READS,
    plan_microbatch,
    sweep_worker_count,
)
from repro.constants import CHUNK_ELEMS  # noqa: E402

#: Timing-free pure functions; the default deadline only buys flakes
#: on loaded CI machines.
settings.register_profile("autotune", deadline=None)
settings.load_profile("autotune")

n_rows_s = st.integers(min_value=1, max_value=1 << 20)
cols_s = st.integers(min_value=1, max_value=4096)


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


class TestSweepWorkers:
    @given(n_runs=st.integers(min_value=1, max_value=4096))
    def test_one_worker(self, n_runs):
        assert sweep_worker_count(n_runs) == 1
