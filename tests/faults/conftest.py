"""Shared fixtures for the fault-injection suite.

Small, hand-built fault plans and a session-cached
:class:`~repro.faults.checker.InvariantChecker` — baselines are
deterministic and route-keyed, so every chaos test in the module can
share one fault-free reference run per scenario.
"""

from __future__ import annotations

import pytest

from repro.faults import Fault, FaultPlan
from repro.faults.checker import InvariantChecker


@pytest.fixture(scope="session")
def checker() -> InvariantChecker:
    return InvariantChecker()


@pytest.fixture
def poison_plan() -> FaultPlan:
    """One poisoned read on the stream dispatch path (must surface)."""
    return FaultPlan(101, (Fault("poisoned_read", "service.stream.dispatch", 1),))


@pytest.fixture
def stall_plan() -> FaultPlan:
    """One brief dispatch stall (latency only; must be tolerated)."""
    return FaultPlan(102, (Fault("slow_batch", "service.stream.dispatch", 2, arg=3),))
