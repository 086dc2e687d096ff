"""The trichotomy judge and end-to-end chaos checks.

``judge()`` is a pure function, so its verdict table is tested in
isolation; the end-to-end checks drive real scenarios through the
armed service stack (the full seeded sweep is the chaos soak's job,
kept out of the tier-1 budget).
"""

from __future__ import annotations

import pytest

from repro.errors import CamConfigError, RefStoreError, ServiceError
from repro.faults import Fault, FaultPlan
from repro.faults.checker import judge, resource_snapshot
from repro.faults.scenarios import SCENARIOS, ChaosScenario, get_scenario

BASE = (18, 12)  # stand-in canonical results for the pure-judge tests
_POISON = Fault("poisoned_read", "service.stream.dispatch", 1)
_STALL = Fault("slow_batch", "service.stream.dispatch", 0)


class TestJudge:
    def test_clean_identical_run_is_tolerated(self):
        verdict, error_type, detail = judge((), None, BASE, BASE)
        assert (verdict, error_type, detail) == ("tolerated", None, "")

    def test_fired_documented_error_is_surfaced(self):
        verdict, error_type, _ = judge(
            (_POISON,), CamConfigError("injected"), None, BASE)
        assert verdict == "surfaced"
        assert error_type == "CamConfigError"

    def test_subclass_of_documented_error_counts(self):
        fault = Fault("poisoned_open", "refstore.catalog.open", 0)
        verdict, error_type, _ = judge(
            (fault,), RefStoreError("corrupt"), None, BASE)
        assert verdict == "surfaced"
        assert error_type == "RefStoreError"

    def test_undocumented_error_type_is_violation(self):
        verdict, error_type, detail = judge(
            (_POISON,), RuntimeError("boom"), None, BASE)
        assert verdict == "violation"
        assert error_type == "RuntimeError"
        assert "undocumented" in detail

    def test_error_without_fired_fault_is_violation(self):
        verdict, _, detail = judge(
            (), ServiceError("spurious"), None, BASE)
        assert verdict == "violation"
        assert "without a fired fault" in detail

    def test_error_not_matching_fired_expectation_is_violation(self):
        # A stall fault documents no error; a ServiceError alongside
        # it has no fired fault to blame.
        verdict, _, detail = judge(
            (_STALL,), ServiceError("spurious"), None, BASE)
        assert verdict == "violation"
        assert "without a fired fault" in detail

    def test_result_drift_is_violation(self):
        verdict, _, detail = judge((_STALL,), None, (18, 11), BASE)
        assert verdict == "violation"
        assert "drifted" in detail


class TestResourceSnapshot:
    def test_snapshot_fields(self):
        snapshot = resource_snapshot()
        assert snapshot.n_threads >= 1
        assert isinstance(snapshot.shm_names, frozenset)
        assert isinstance(snapshot.child_pids, frozenset)


class TestEndToEnd:
    """Real chaos runs over the scenario matrix."""

    def test_baseline_is_stable(self, checker):
        scenario = get_scenario("stream-batched-gemm")
        first = checker.baseline(scenario)
        assert first == scenario.run()
        assert first[0] == 18  # every read accounted for

    def test_poisoned_read_surfaces(self, checker, poison_plan):
        verdict = checker.check(get_scenario("stream-batched-gemm"),
                                poison_plan)
        assert verdict.ok
        assert verdict.verdict == "surfaced"
        assert verdict.error_type == "CamConfigError"
        assert [fault.kind for fault in verdict.fired] == \
            ["poisoned_read"]
        assert verdict.hygiene == ()

    def test_stall_is_tolerated_bit_identically(self, checker,
                                                stall_plan):
        verdict = checker.check(get_scenario("stream-batched-gemm"),
                                stall_plan)
        assert verdict.ok
        assert verdict.verdict == "tolerated"
        assert verdict.error_type is None

    def test_compacted_stream_poison_surfaces(self, checker,
                                              poison_plan):
        # This stream serves a stored reference.
        verdict = checker.check(
            get_scenario("store-batched-gemm"),
            poison_plan)
        assert verdict.ok
        assert verdict.verdict == "surfaced"
        assert verdict.hygiene == ()

    def test_store_truncate_surfaces_as_refstore_error(self, checker):
        plan = FaultPlan(103, (Fault("store_truncate", "refstore.save", 0),))
        verdict = checker.check(
            get_scenario("store-batched-gemm"), plan)
        assert verdict.ok
        assert verdict.verdict == "surfaced"
        assert verdict.error_type == "RefStoreError"

    def test_catalog_poisoned_open_surfaces_and_counts(self, checker):
        plan = FaultPlan(104, (Fault("poisoned_open", "refstore.catalog.open", 0),))
        verdict = checker.check(
            get_scenario("catalog-batched-gemm"), plan)
        assert verdict.ok
        assert verdict.verdict == "surfaced"
        assert verdict.error_type == "RefStoreError"

    def test_frontend_poisoned_read_surfaces(self, checker, poison_plan):
        # Frontend sessions run on the feeding thread, so a poisoned
        # read fires at the same dispatch hook as the standalone
        # service's, and the frontend's close leaves no thread behind.
        verdict = checker.check(get_scenario("frontend-batched-gemm"),
                                poison_plan)
        assert verdict.ok
        assert verdict.verdict == "surfaced"
        assert verdict.error_type == "CamConfigError"
        assert verdict.hygiene == ()

    def test_vacuous_plan_is_tolerated(self, checker):
        # The stream route saves no store file: the fault never fires.
        plan = FaultPlan(106, (Fault("store_truncate", "refstore.save", 0),))
        verdict = checker.check(get_scenario("stream-batched-gemm"),
                                plan)
        assert verdict.ok
        assert verdict.verdict == "tolerated"
        assert verdict.fired == ()

    def test_verdicts_reproduce(self, checker, poison_plan):
        scenario = get_scenario("stream-batched-gemm")
        first = checker.check(scenario, poison_plan)
        second = checker.check(scenario, poison_plan)
        assert first.describe() == second.describe()

    def test_describe_round_trips_to_json(self, checker, stall_plan):
        import json

        verdict = checker.check(get_scenario("stream-batched-gemm"),
                                stall_plan)
        assert json.loads(json.dumps(verdict.describe())) == \
            verdict.describe()


class TestScenarioMatrix:
    def test_matrix_covers_every_route(self):
        routes = [s.route for s in SCENARIOS]
        assert sorted(routes) == ["catalog", "frontend", "store", "stream"]
        assert len({s.name for s in SCENARIOS}) == len(SCENARIOS)

    def test_reachable_points_are_valid(self):
        from repro.faults import HOOK_POINTS

        for scenario in SCENARIOS:
            assert scenario.reachable_points
            for point in scenario.reachable_points:
                assert point in HOOK_POINTS, scenario.name

    def test_fault_kinds_have_reachable_points(self):
        from repro.faults import FAULT_SPECS

        for scenario in SCENARIOS:
            for kind in scenario.fault_kinds:
                spec = FAULT_SPECS[kind]
                assert set(spec.points) & \
                    set(scenario.reachable_points), \
                    (scenario.name, kind)

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(CamConfigError, match="unknown chaos scenario"):
            get_scenario("nope")

    def test_unknown_route_raises_typed_error(self):
        # Error-contract regression (contractlint CL401): a bad route
        # raises the typed config error, not a bare ValueError.
        scenario = ChaosScenario(
            name="bogus", route="teleport", fault_kinds=(),
        )
        with pytest.raises(CamConfigError, match="unknown scenario route"):
            scenario.run()
