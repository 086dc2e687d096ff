"""Strategy profiles: measured per-read search statistics for Fig. 8.

Fig. 8's analytic cost path needs two workload statistics:
average *searches per read* and average *shift-register rotation
cycles per read* with the HDAC/TASR strategies enabled.  The paper
measures them on the functional design; this module does the same —
one :meth:`~repro.core.matcher.AsmCapMatcher.match_sweep` pass over a
condition's threshold sweep, with the per-threshold HDAC/TASR search
counts and rotation cycles harvested from the array's cost ledger
(:func:`profile_from_ledger`), then averaged over the sweep exactly as
the analytic :func:`repro.experiments.fig8.strategy_search_profile`
averages the policies.  Because the functional matcher applies the
same off-line policies, the measured and analytic profiles agree on
the paper's conditions — the Fig. 8 driver prints both as a
cross-check.

:func:`typical_search_event` also lives here: the synthetic
typical-activity ED* pass that anchors the Section V-B power breakdown
and Table I, so those experiments read their component fractions from
the same ledger views as every measured pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import constants
from repro.cost.events import (
    CompactionCheckpoint,
    EdStarPass,
    LedgerEvent,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.errors import ExperimentError, LedgerCompactionError


@dataclass(frozen=True)
class StrategyProfile:
    """Per-read strategy statistics over one condition's sweep.

    Attributes
    ----------
    condition:
        ``"A"``, ``"B"`` or a combined label (``"A+B"``).
    searches_per_read:
        Average search operations per read over the sweep.
    rotation_cycles_per_read:
        Average shift-register cycles per read over the sweep.
    source:
        ``"measured"`` (harvested from a ledger) or ``"analytic"``
        (derived from the policies alone).
    thresholds:
        The sweep vector the averages run over.
    per_threshold_searches / per_threshold_rotation_cycles:
        The unaveraged per-threshold statistics.
    """

    condition: str
    searches_per_read: float
    rotation_cycles_per_read: float
    source: str = "measured"
    thresholds: tuple[int, ...] = ()
    per_threshold_searches: tuple[float, ...] = ()
    per_threshold_rotation_cycles: tuple[float, ...] = ()

    @classmethod
    def plain(cls, condition: str = "plain") -> "StrategyProfile":
        """The strategy-free baseline: one ED* search, no rotations.

        What the analytic cost path
        (:func:`repro.experiments.fig8.asmcap_read_cost`) assumes when
        no profile is passed — a plain single-search read.
        """
        return cls(condition=condition, searches_per_read=1.0,
                   rotation_cycles_per_read=0.0, source="analytic")

    @staticmethod
    def average(profiles: "Iterable[StrategyProfile]") -> "StrategyProfile":
        """Equal-weight average over conditions (the paper's Fig. 8
        "average effect of the proposed strategies")."""
        profiles = list(profiles)
        if not profiles:
            raise ExperimentError("cannot average zero strategy profiles")
        return StrategyProfile(
            condition="+".join(p.condition for p in profiles),
            searches_per_read=float(
                np.mean([p.searches_per_read for p in profiles])
            ),
            rotation_cycles_per_read=float(
                np.mean([p.rotation_cycles_per_read for p in profiles])
            ),
            source=profiles[0].source,
        )


def profile_from_ledger(events: Iterable[LedgerEvent],
                        thresholds: "Sequence[int] | np.ndarray",
                        condition: str = "?") -> StrategyProfile:
    """Harvest a sweep's strategy statistics from recorded events.

    For each threshold of the sweep, a read cost one search per sweep
    pass whose reference set covered that threshold (the base ED* pass
    covers every threshold; the HDAC pass covers the thresholds whose
    ``p`` cleared the disable cut; each TASR rotation pass covers the
    thresholds at or above ``Tl``), plus ``|rotation|`` shift cycles
    per covering rotation pass.  This is the scalar-equivalent count —
    what a per-threshold scalar execution would have issued — which is
    what the analytic Fig. 8 model consumes.

    A ledger holding several ``match_sweep`` runs (repeated
    measurements, chunked read blocks) is normalised by the number of
    base ED* passes covering each threshold, so the profile is the
    per-read average over runs, never a multiple of it.

    Harvesting needs the *full* sweep-pass events (per-event threshold
    coverage).  A compacted ledger has folded some of them away, so a
    :class:`~repro.cost.events.CompactionCheckpoint` raises
    :class:`~repro.errors.LedgerCompactionError` instead of yielding a
    profile over part of the sweep (see DESIGN.md, "Cost-ledger
    contract: compaction").  *thresholds* is a non-empty 1-D integer
    vector (:class:`~repro.errors.ThresholdError` otherwise, never
    truncated).
    """
    from repro.knobs import check_thresholds

    thresholds = tuple(check_thresholds(thresholds).tolist())
    sweep_passes = []
    for event in events:
        if isinstance(event, CompactionCheckpoint):
            raise LedgerCompactionError(
                f"the ledger folded {event.n_folded} events into a "
                "compaction checkpoint; a strategy profile needs every "
                "sweep pass, so harvest it from an append-only ledger"
            )
        if isinstance(event, SearchPassEvent) and event.sweep:
            sweep_passes.append(event)
    if not sweep_passes:
        raise ExperimentError(
            "no sweep passes recorded; run match_sweep before harvesting "
            "a strategy profile"
        )
    searches: list[float] = []
    cycles: list[float] = []
    for threshold in thresholds:
        n_searches = 0.0
        n_cycles = 0.0
        n_base = 0
        for event in sweep_passes:
            if not event.covers_threshold(threshold):
                continue
            n_searches += 1.0
            if isinstance(event, TasrRotationPass):
                n_cycles += abs(int(event.rotation))
            elif isinstance(event, EdStarPass):
                n_base += 1
        if n_base == 0:
            raise ExperimentError(
                f"no base ED* sweep pass covers threshold {threshold}; "
                "the ledger does not hold a full sweep over these "
                "thresholds"
            )
        searches.append(n_searches / n_base)
        cycles.append(n_cycles / n_base)
    return StrategyProfile(
        condition=condition,
        searches_per_read=float(np.mean(searches)),
        rotation_cycles_per_read=float(np.mean(cycles)),
        source="measured",
        thresholds=thresholds,
        per_threshold_searches=tuple(searches),
        per_threshold_rotation_cycles=tuple(cycles),
    )


def _condition_setup(condition: str):
    from repro.genome.edits import ErrorModel

    label = condition.strip().upper()
    if label == "A":
        return label, ErrorModel.condition_a(), constants.CONDITION_A_THRESHOLDS
    if label == "B":
        return label, ErrorModel.condition_b(), constants.CONDITION_B_THRESHOLDS
    raise ExperimentError(f"unknown condition {condition!r}")


def measure_strategy_profile(condition: str,
                             tasr_direction: str = "both",
                             n_reads: int = 4,
                             n_segments: int = 8,
                             seed: int = 0) -> StrategyProfile:
    """Measure one condition's strategy profile on the functional engine.

    Builds a small workload for the condition, runs **one**
    :meth:`~repro.core.matcher.AsmCapMatcher.match_sweep` over the
    condition's Fig. 7 threshold sweep, and harvests the per-threshold
    search counts and rotation cycles from the array's cost ledger.
    The statistics are policy-driven (HDAC eligibility and ``Tl`` are
    off-line functions of the workload's error rates), so a tiny read
    block measures the same profile as a full-scale run.
    """
    from repro.cam.array import CamArray
    from repro.core.matcher import AsmCapMatcher, MatcherConfig
    from repro.genome.datasets import build_dataset

    label, _, thresholds = _condition_setup(condition)
    dataset = build_dataset(label, n_reads=n_reads,
                            read_length=constants.READ_LENGTH,
                            n_segments=n_segments, seed=seed)
    array = CamArray(rows=n_segments, cols=constants.READ_LENGTH,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(
        array, dataset.model,
        MatcherConfig(tasr_direction=tasr_direction), seed=seed + 1,
    )
    reads = np.stack([record.read.codes for record in dataset.reads])
    matcher.match_sweep(reads, thresholds)
    return profile_from_ledger(array.ledger, thresholds, condition=label)


def typical_search_event(rows: int = constants.ARRAY_ROWS,
                         cols: int = constants.ARRAY_COLS,
                         mismatch_fraction: float =
                         constants.TYPICAL_ED_STAR_MISMATCH_FRACTION,
                         vdd: float = constants.VDD_VOLTS) -> EdStarPass:
    """A synthetic ED* pass at typical genome activity.

    Every row mismatches at the typical ED* fraction — the
    steady-state activity the Section V-B power breakdown and Table I
    assume.  Feeding this one event to the component views reproduces
    the analytic per-search component energies, so the breakdown
    experiments and the measured ledgers share one accounting model.
    """
    if not 0.0 <= mismatch_fraction <= 1.0:
        raise ExperimentError(
            f"mismatch_fraction must be in [0, 1], got {mismatch_fraction}"
        )
    counts = np.full((1, rows), mismatch_fraction * cols)
    return EdStarPass(
        domain="charge", mode="ed_star", n_cells=cols, vdd=vdd,
        search_time_ns=constants.ASMCAP_SEARCH_TIME_NS,
        mismatch_counts=counts,
        thresholds=np.zeros(1, dtype=int),
    )
