"""Tests for the Fig. 8 system-level comparison.

The headline check: ordering and rough factors must match the paper —
CM-CPU slowest, then ReSMA, SaVI, EDAM, with ASMCap fastest and most
energy efficient; measured ratios within a small factor of the paper's
anchors.
"""

from __future__ import annotations

import pytest

from repro import constants
from repro.experiments.fig8 import (
    SYSTEMS,
    asmcap_read_cost,
    compute_fig8,
    edam_read_cost,
    strategy_search_profile,
)


@pytest.fixture(scope="module")
def fig8():
    return compute_fig8()


def within_factor(measured: float, anchor: float, factor: float) -> bool:
    return anchor / factor <= measured <= anchor * factor


class TestOrdering:
    def test_latency_ordering(self, fig8):
        latencies = [fig8.costs[name].latency_ns for name in SYSTEMS[:5]]
        # CM-CPU > ReSMA > SaVI > EDAM > ASMCap w/o.
        assert all(a > b for a, b in zip(latencies, latencies[1:], strict=False))

    def test_energy_ordering(self, fig8):
        energies = [fig8.costs[name].energy_joules for name in SYSTEMS[:5]]
        assert all(a > b for a, b in zip(energies, energies[1:], strict=False))

    def test_strategies_cost_something(self, fig8):
        plain = fig8.costs["ASMCap w/o H&T"]
        full = fig8.costs["ASMCap w/ H&T"]
        assert full.latency_ns > plain.latency_ns
        assert full.energy_joules > plain.energy_joules

    def test_asmcap_with_strategies_still_beats_edam(self, fig8):
        assert fig8.speedup_over("EDAM", "ASMCap w/ H&T") > 1.0
        assert fig8.energy_efficiency_over("EDAM", "ASMCap w/ H&T") > 1.0


class TestAnchors:
    """Measured ratios within 3x of the paper's reported factors."""

    @pytest.mark.parametrize("name,key", [
        ("CM-CPU", "cm_cpu"), ("ReSMA", "resma"),
        ("SaVI", "savi"), ("EDAM", "edam"),
    ])
    def test_speedup_no_strategy(self, fig8, name, key):
        measured = fig8.speedup_over(name, "ASMCap w/o H&T")
        anchor = constants.FIG8_SPEEDUP_NO_STRATEGY[key]
        assert within_factor(measured, anchor, 3.0)

    @pytest.mark.parametrize("name,key", [
        ("CM-CPU", "cm_cpu"), ("ReSMA", "resma"),
        ("SaVI", "savi"), ("EDAM", "edam"),
    ])
    def test_energy_no_strategy(self, fig8, name, key):
        measured = fig8.energy_efficiency_over(name, "ASMCap w/o H&T")
        anchor = constants.FIG8_ENERGY_EFF_NO_STRATEGY[key]
        assert within_factor(measured, anchor, 3.0)

    @pytest.mark.parametrize("name,key", [
        ("CM-CPU", "cm_cpu"), ("ReSMA", "resma"),
        ("SaVI", "savi"), ("EDAM", "edam"),
    ])
    def test_speedup_with_strategy(self, fig8, name, key):
        measured = fig8.speedup_over(name, "ASMCap w/ H&T")
        anchor = constants.FIG8_SPEEDUP_WITH_STRATEGY[key]
        assert within_factor(measured, anchor, 3.0)

    @pytest.mark.parametrize("name,key", [
        ("CM-CPU", "cm_cpu"), ("ReSMA", "resma"),
        ("SaVI", "savi"), ("EDAM", "edam"),
    ])
    def test_energy_with_strategy(self, fig8, name, key):
        measured = fig8.energy_efficiency_over(name, "ASMCap w/ H&T")
        anchor = constants.FIG8_ENERGY_EFF_WITH_STRATEGY[key]
        assert within_factor(measured, anchor, 3.0)


class TestStrategyProfile:
    def test_condition_a_uses_two_searches(self):
        searches, cycles = strategy_search_profile("A")
        assert searches == pytest.approx(2.0)  # HDAC on, TASR off
        assert cycles == 0.0

    def test_condition_b_rotates_above_tl(self):
        searches, cycles = strategy_search_profile("B")
        # Tl = 6: rotations fire at 6 of the 8 swept thresholds.
        assert searches == pytest.approx(1 + 6 / 8 * 4)
        assert cycles > 0

    def test_left_only_cheaper(self):
        both, _ = strategy_search_profile("B", "both")
        left, _ = strategy_search_profile("B", "left")
        assert left < both


class TestCostHelpers:
    def test_edam_period_exceeds_asmcap(self):
        from repro.arch.power import steady_state_search_period_ns
        assert edam_read_cost().latency_ns > steady_state_search_period_ns()

    def test_asmcap_cost_monotone_in_searches(self):
        from repro.cost.profile import StrategyProfile
        one = asmcap_read_cost(StrategyProfile.plain())
        two = asmcap_read_cost(StrategyProfile(
            condition="test", searches_per_read=2.0,
            rotation_cycles_per_read=0.0, source="analytic",
        ))
        assert two.latency_ns > one.latency_ns
        assert two.energy_joules == pytest.approx(2 * one.energy_joules)

    def test_render_mentions_all_systems(self, fig8):
        text = fig8.render()
        for name in SYSTEMS:
            assert name in text


def _profile(searches: float, cycles: float = 0.0):
    from repro.cost.profile import StrategyProfile
    return StrategyProfile(condition="test", searches_per_read=searches,
                           rotation_cycles_per_read=cycles,
                           source="analytic")


class TestAnalyticReadCost:
    """The one analytic per-read cost model of the 512-array system."""

    def test_plain_latency_is_one_issue_period(self):
        from repro.arch.power import steady_state_search_period_ns
        assert (asmcap_read_cost().latency_ns
                == steady_state_search_period_ns())

    def test_plain_energy_is_one_search_on_every_array(self):
        from repro.arch.power import component_energies_per_search
        per_array = sum(component_energies_per_search().values())
        assert asmcap_read_cost().energy_joules == pytest.approx(
            per_array * constants.ARRAY_COUNT, rel=1e-12)

    @pytest.mark.parametrize("n_arrays", [1, 64, 512])
    def test_energy_linear_in_arrays_latency_independent(self, n_arrays):
        one = asmcap_read_cost(n_arrays=1)
        many = asmcap_read_cost(n_arrays=n_arrays)
        assert many.energy_joules == pytest.approx(
            n_arrays * one.energy_joules, rel=1e-12)
        # Arrays search in parallel behind the H-tree.
        assert many.latency_ns == one.latency_ns

    @pytest.mark.parametrize("searches", [1.5, 2.0, 3.0, 5.0])
    def test_more_searches_cost_more(self, searches):
        plain = asmcap_read_cost()
        more = asmcap_read_cost(_profile(searches))
        assert more.latency_ns == pytest.approx(
            plain.latency_ns
            + (searches - 1.0) * constants.ASMCAP_SEARCH_TIME_NS)
        assert more.energy_joules == pytest.approx(
            searches * plain.energy_joules)

    def test_rotation_cycles_add_shift_latency_only(self):
        from repro.arch.timing import SHIFT_CYCLE_NS
        still = asmcap_read_cost(_profile(3.0))
        shifted = asmcap_read_cost(_profile(3.0, cycles=4.0))
        assert shifted.latency_ns == pytest.approx(
            still.latency_ns + 4.0 * SHIFT_CYCLE_NS)
        assert shifted.energy_joules == still.energy_joules

    def test_name_tracks_strategies(self):
        assert asmcap_read_cost().name == "ASMCap w/o H&T"
        assert asmcap_read_cost(_profile(2.0)).name == "ASMCap w/ H&T"

    def test_profile_drives_the_estimate(self):
        from repro.experiments.fig8 import analytic_strategy_profile
        plain = asmcap_read_cost()
        full = asmcap_read_cost(analytic_strategy_profile("B"))
        assert full.latency_ns > plain.latency_ns
        assert full.energy_joules > plain.energy_joules

    def test_current_domain_costs_more(self):
        """EDAM (current domain) pays more per read than ASMCap."""
        edam, asmcap = edam_read_cost(), asmcap_read_cost()
        assert edam.energy_joules > asmcap.energy_joules
        assert edam.latency_ns > asmcap.latency_ns

    @pytest.mark.parametrize("argument", [2, "B", (2.0, 0.0)])
    def test_rejects_non_profile_argument(self, argument):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            asmcap_read_cost(argument)
