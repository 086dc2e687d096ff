"""Tests for the measured strategy profile and its Fig. 8 wiring."""

from __future__ import annotations

import pytest

from repro import constants
from repro.arch.power import component_energies_per_search
from repro.cost.profile import (
    StrategyProfile,
    measure_strategy_profile,
    profile_from_ledger,
    typical_search_event,
)
from repro.cost.views import component_energies
from repro.errors import ExperimentError
from repro.experiments.fig8 import (
    asmcap_read_cost,
    compute_fig8,
    strategy_search_profile,
)


class TestMeasuredProfile:
    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_measured_matches_analytic(self, condition):
        """One match_sweep pass measures exactly the policy profile."""
        measured = measure_strategy_profile(condition)
        searches, cycles = strategy_search_profile(condition)
        assert measured.searches_per_read == pytest.approx(searches)
        assert measured.rotation_cycles_per_read == pytest.approx(cycles)
        assert measured.source == "measured"

    def test_per_threshold_detail(self):
        profile = measure_strategy_profile("B")
        assert profile.thresholds == constants.CONDITION_B_THRESHOLDS
        assert len(profile.per_threshold_searches) == len(
            constants.CONDITION_B_THRESHOLDS
        )
        # Below Tl the per-threshold count is 1 (ED*) + 0 (HDAC off
        # for condition B) + 0 rotations; above Tl it adds 2*NR passes.
        assert min(profile.per_threshold_searches) == 1.0
        assert max(profile.per_threshold_searches) == 1.0 + 2 * constants.TASR_NR

    def test_left_only_cheaper(self):
        both = measure_strategy_profile("B", tasr_direction="both")
        left = measure_strategy_profile("B", tasr_direction="left")
        assert left.searches_per_read < both.searches_per_read

    def test_unknown_condition(self):
        with pytest.raises(ExperimentError):
            measure_strategy_profile("C")

    def test_profile_needs_sweep_events(self):
        with pytest.raises(ExperimentError):
            profile_from_ledger([], (1, 2, 3))

    def test_repeated_sweeps_average_not_multiply(self, small_dataset_b):
        """Two match_sweep runs on one ledger yield the per-read
        profile, not twice it."""
        import numpy as np

        from repro.cam.array import CamArray
        from repro.core.matcher import AsmCapMatcher, MatcherConfig

        dataset = small_dataset_b
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         domain="charge", noisy=True, seed=4)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=5)
        reads = np.stack([r.read.codes for r in dataset.reads])
        thresholds = np.arange(2, 17, 2)
        matcher.match_sweep(reads, thresholds)
        once = profile_from_ledger(array.ledger, thresholds, "B")
        matcher.match_sweep(reads, thresholds)
        twice = profile_from_ledger(array.ledger, thresholds, "B")
        assert twice.searches_per_read == once.searches_per_read
        assert (twice.rotation_cycles_per_read
                == once.rotation_cycles_per_read)

    def test_profile_rejects_uncovered_threshold(self, small_dataset_b):
        import numpy as np

        from repro.cam.array import CamArray
        from repro.core.matcher import AsmCapMatcher, MatcherConfig

        dataset = small_dataset_b
        array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                         domain="charge", noisy=True, seed=4)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=5)
        reads = np.stack([r.read.codes for r in dataset.reads])
        matcher.match_sweep(reads, np.array([2, 4]))
        with pytest.raises(ExperimentError):
            profile_from_ledger(array.ledger, (2, 4, 6))

    def test_average(self):
        a = StrategyProfile("A", 2.0, 0.0)
        b = StrategyProfile("B", 4.0, 4.5)
        combined = StrategyProfile.average([a, b])
        assert combined.searches_per_read == pytest.approx(3.0)
        assert combined.rotation_cycles_per_read == pytest.approx(2.25)
        assert combined.condition == "A+B"

    def test_average_empty(self):
        with pytest.raises(ExperimentError):
            StrategyProfile.average([])


class TestFig8Measured:
    def test_measured_equals_analytic_fig8(self):
        measured = compute_fig8(measured=True)
        analytic = compute_fig8(measured=False)
        for name in measured.costs:
            assert (measured.costs[name].latency_ns
                    == analytic.costs[name].latency_ns)
            assert (measured.costs[name].energy_joules
                    == analytic.costs[name].energy_joules)

    def test_result_carries_both_profiles(self):
        result = compute_fig8(measured=True)
        assert set(result.profiles) == {"A", "B"}
        assert result.profiles["A"].source == "measured"
        assert result.analytic_profiles["A"].source == "analytic"

    def test_render_includes_strategy_statistics(self):
        text = compute_fig8(measured=True).render()
        assert "Strategy statistics" in text
        assert "measured" in text
        assert "analytic" in text

    def test_asmcap_read_cost_default_is_plain_profile(self):
        assert (asmcap_read_cost().latency_ns
                == asmcap_read_cost(StrategyProfile.plain()).latency_ns)

    def test_asmcap_read_cost_rejects_scalar_argument(self):
        with pytest.raises(ExperimentError):
            asmcap_read_cost(2.0)


class TestEstimateReadCostProfileOnly:
    """The per-read cost estimate reads a StrategyProfile; the plain
    profile is its strategy-free default."""

    def test_plain_profile_is_one_search_no_rotation(self):
        plain = StrategyProfile.plain()
        assert plain.searches_per_read == 1.0
        assert plain.rotation_cycles_per_read == 0.0
        assert plain.source == "analytic"


class TestTypicalEvent:
    def test_power_model_reads_ledger_view(self):
        """arch.power's component energies ARE the ledger view."""
        event = typical_search_event()
        assert component_energies_per_search() == component_energies(event)

    def test_typical_event_shape(self):
        event = typical_search_event(rows=64, cols=32)
        assert event.n_rows == 64
        assert event.n_cells == 32
        assert event.domain == "charge"

    def test_component_view_rejects_current_domain(self):
        import numpy as np

        from repro.cost.events import EdStarPass
        from repro.errors import CamConfigError

        event = EdStarPass(
            domain="current", mode="ed_star", n_cells=8, vdd=1.2,
            search_time_ns=2.4,
            mismatch_counts=np.full((1, 4), 2.0),
            thresholds=np.zeros(1, dtype=int),
        )
        with pytest.raises(CamConfigError):
            component_energies(event)

    def test_invalid_fraction(self):
        with pytest.raises(ExperimentError):
            typical_search_event(mismatch_fraction=1.5)
