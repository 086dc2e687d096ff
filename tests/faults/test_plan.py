"""Fault plans: typed validation and seed-keyed determinism."""

from __future__ import annotations

import pytest

from repro.errors import CamConfigError
from repro.faults import FAULT_SPECS, HOOK_POINTS, Fault, FaultPlan
from repro.faults.plan import DOCUMENTED_ERRORS


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CamConfigError, match="unknown fault kind"):
            Fault("meteor_strike", "service.stream.dispatch", 0)

    def test_point_must_match_kind(self):
        with pytest.raises(CamConfigError, match="cannot attach"):
            Fault("store_truncate", "service.stream.dispatch", 0)

    def test_negative_hit_rejected(self):
        with pytest.raises(CamConfigError, match="hit index"):
            Fault("slow_batch", "service.stream.dispatch", -1)

    def test_every_spec_point_is_a_hook_point(self):
        for kind, spec in FAULT_SPECS.items():
            for point in spec.points:
                assert point in HOOK_POINTS, (kind, point)

    def test_expected_errors_are_documented(self):
        # Every surfaceable error type must be within the documented
        # surface the checker judges against.
        for kind, spec in FAULT_SPECS.items():
            for error_type in spec.expected:
                assert issubclass(error_type, DOCUMENTED_ERRORS), kind

    def test_describe_is_json_ready(self):
        fault = Fault("poisoned_read", "service.stream.dispatch", 2,
                      arg=7)
        assert fault.describe() == {
            "kind": "poisoned_read",
            "point": "service.stream.dispatch",
            "hit": 2, "arg": 7,
        }


class TestPlanValidation:
    def test_duplicate_slot_rejected(self):
        fault = Fault("slow_batch", "service.stream.dispatch", 1)
        other = Fault("poisoned_read", "service.stream.dispatch", 1)
        with pytest.raises(CamConfigError, match="slot"):
            FaultPlan.of(fault, other)

    def test_distinct_slots_accepted(self):
        plan = FaultPlan.of(
            Fault("slow_batch", "service.stream.dispatch", 0),
            Fault("poisoned_read", "service.stream.dispatch", 1),
            seed=9,
        )
        assert plan.seed == 9
        assert len(plan.faults) == 2


class TestGenerate:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.generate(1234, n_faults=3)
        b = FaultPlan.generate(1234, n_faults=3)
        assert a == b

    def test_different_seeds_differ(self):
        schedules = {FaultPlan.generate(seed, n_faults=2).faults
                     for seed in range(16)}
        assert len(schedules) > 1

    def test_kinds_restriction_respected(self):
        plan = FaultPlan.generate(7, kinds=("slow_batch",), n_faults=2)
        assert plan.faults
        assert all(f.kind == "slow_batch" for f in plan.faults)

    def test_points_restriction_respected(self):
        plan = FaultPlan.generate(
            11, kinds=("poisoned_read", "slow_batch"), n_faults=2,
            points=("service.stream.dispatch",),
        )
        assert plan.faults
        assert all(f.point == "service.stream.dispatch"
                   for f in plan.faults)

    def test_points_can_exclude_every_kind(self):
        # store_truncate only attaches to refstore.save; restricting
        # points elsewhere must yield an empty (vacuous) plan, not an
        # invalid fault.
        plan = FaultPlan.generate(
            3, kinds=("store_truncate",),
            points=("service.stream.dispatch",),
        )
        assert plan.faults == ()

    def test_unknown_point_rejected(self):
        with pytest.raises(CamConfigError, match="unknown hook point"):
            FaultPlan.generate(0, points=("service.nope",))

    def test_hits_bounded(self):
        for seed in range(32):
            plan = FaultPlan.generate(seed, n_faults=2, max_hits=3)
            assert all(0 <= f.hit < 3 for f in plan.faults)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(CamConfigError, match="unknown fault kind"):
            FaultPlan.generate(0, kinds=("bogus",))
        with pytest.raises(CamConfigError, match="n_faults"):
            FaultPlan.generate(0, n_faults=0)
        with pytest.raises(CamConfigError, match="max_hits"):
            FaultPlan.generate(0, max_hits=0)
