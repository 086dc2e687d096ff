"""Tests for Fig. 8's strategy profile and the typical-activity pass.

Fig. 8's strategy statistics come from one function,
:func:`repro.experiments.fig8.strategy_profile`, which counts them
from the off-line HDAC/TASR policies.  The evidence that the counts
are what the hardware model does is measured here: one ``match_batch``
per swept threshold on a fresh noisy matcher, with the searches and
shift cycles read off the array's ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.arch.power import component_energies_per_search
from repro.cam.array import CamArray
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.cost.views import (
    component_energies,
    search_stats,
    typical_search_event,
)
from repro.errors import ExperimentError
from repro.experiments.fig8 import (
    StrategyProfile,
    asmcap_read_cost,
    compute_fig8,
    strategy_profile,
)
from repro.genome.datasets import build_dataset

N_READS = 4


def _engine_profile(condition: str) -> StrategyProfile:
    """The profile the functional engine's ledger records.

    Per threshold of the condition's sweep, one ``match_batch`` of a
    small noisy block on a fresh matcher; the ledger's searches and
    shift cycles divided by the block size are that threshold's
    per-read statistics.
    """
    dataset = build_dataset(condition, n_reads=N_READS,
                            read_length=constants.READ_LENGTH,
                            n_segments=8, seed=3)
    reads = np.stack([record.read.codes for record in dataset.reads])
    thresholds = strategy_profile(condition).thresholds
    searches, cycles = [], []
    for threshold in thresholds:
        array = CamArray(rows=8, cols=constants.READ_LENGTH,
                         domain="charge", noisy=True, seed=4)
        array.store(dataset.segments)
        matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(),
                                seed=5)
        matcher.match_batch(reads, threshold)
        stats = search_stats(array.ledger)
        searches.append(stats.n_searches / N_READS)
        cycles.append(stats.n_rotation_cycles / N_READS)
    return StrategyProfile(
        condition=condition,
        searches_per_read=float(np.mean(searches)),
        rotation_cycles_per_read=float(np.mean(cycles)),
        thresholds=thresholds,
        per_threshold_searches=tuple(searches),
        per_threshold_rotation_cycles=tuple(cycles),
    )


class TestMeasuredProfile:
    """The policy profile, and the engine's ledger measured against it."""

    @pytest.mark.parametrize("condition", ["A", "B"])
    def test_measured_matches_analytic(self, condition):
        """The engine issues exactly the searches and shift cycles the
        policies charge, at every swept threshold."""
        assert _engine_profile(condition) == strategy_profile(condition)

    def test_per_threshold_detail(self):
        profile = strategy_profile("b")
        assert profile.condition == "B"
        assert profile.thresholds == constants.CONDITION_B_THRESHOLDS
        assert all(type(t) is int for t in profile.thresholds)
        assert len(profile.per_threshold_searches) == len(
            constants.CONDITION_B_THRESHOLDS
        )
        # Below Tl the per-threshold count is 1 (ED*) + 0 (HDAC off
        # for condition B) + 0 rotations; above Tl it adds 2*NR passes.
        assert min(profile.per_threshold_searches) == 1.0
        assert max(profile.per_threshold_searches) == 1.0 + 2 * constants.TASR_NR

    def test_unknown_condition(self):
        with pytest.raises(ExperimentError):
            strategy_profile("C")

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
        """Fig. 8 charged from the engine's ledger counts is bit-equal
        to Fig. 8 charged from the policies."""
        measured = asmcap_read_cost(StrategyProfile.average(
            [_engine_profile("A"), _engine_profile("B")]))
        assert measured == compute_fig8().costs["ASMCap w/ H&T"]

    def test_result_carries_both_profiles(self):
        result = compute_fig8()
        assert result.profiles == {"A": strategy_profile("A"),
                                   "B": strategy_profile("B")}

    def test_render_includes_strategy_statistics(self):
        text = compute_fig8().render()
        assert "Strategy statistics" in text
        assert "searches/read" in text

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

