"""Fig. 8 — system-level speedup and energy efficiency vs prior ASM
accelerators (CM-CPU, ReSMA, SaVI, EDAM, ASMCap w/o and w/ strategies).

Per-read latency and energy models (512 arrays x 256 x 256, 64 Mb):

* **ASMCap** — the first search of a read costs one steady-state issue
  period (fetch + broadcast + load + search; derived from the Section
  V-B power anchor).  HDAC's Hamming search and TASR's rotated searches
  reuse the already-loaded read, so each extra search adds one search
  cycle (plus shift cycles for rotations).  The strategy statistics
  come from the off-line policies (Section IV): :func:`strategy_profile`
  counts, per threshold of a condition's Fig. 7 sweep, the base ED*
  search, HDAC's extra search when ``p`` clears its cut, and one
  rotated search per TASR offset when ``T >= Tl``, then averages over
  the sweep and over the two conditions — the paper's "average effect
  of the proposed strategies".  The functional engine applies the same
  policies, so its ledger counts the same searches (checked per
  threshold in ``tests/cost/test_profile.py``).
* **EDAM** — same structure in the current domain (pre-charge +
  discharge + sample), period derived from its Table-I cell power.
* **CM-CPU / ReSMA / SaVI** — the baseline cost models of
  :mod:`repro.baselines` (see DESIGN.md for their calibration).

The driver prints measured ratios next to the paper's reported anchors
so deviations are visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import constants
from repro.arch.power import (
    component_energies_per_search,
    steady_state_search_period_ns,
)
from repro.arch.timing import SHIFT_CYCLE_NS
from repro.baselines.cm_cpu import CmCpuBaseline
from repro.baselines.edam import (
    edam_issue_period_ns,
    edam_search_energy_per_array,
)
from repro.baselines.resma import ResmaBaseline
from repro.baselines.savi import SaviBaseline
from repro.core import policy
from repro.core.tasr import rotation_offsets
from repro.errors import ExperimentError
from repro.eval.reporting import format_ratio, format_table
from repro.experiments.fig7 import thresholds_for
from repro.genome.datasets import resolve_condition
from repro.genome.generator import generate_reference

#: System ordering used in the rendered figure.
SYSTEMS = ("CM-CPU", "ReSMA", "SaVI", "EDAM",
           "ASMCap w/o H&T", "ASMCap w/ H&T")


@dataclass(frozen=True)
class SystemCost:
    """Per-read latency and energy of one system."""

    name: str
    latency_ns: float
    energy_joules: float


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
    thresholds:
        The sweep vector the averages run over.
    per_threshold_searches / per_threshold_rotation_cycles:
        The unaveraged per-threshold statistics.
    """

    condition: str
    searches_per_read: float
    rotation_cycles_per_read: float
    thresholds: tuple[int, ...] = ()
    per_threshold_searches: tuple[float, ...] = ()
    per_threshold_rotation_cycles: tuple[float, ...] = ()

    @classmethod
    def plain(cls) -> "StrategyProfile":
        """The strategy-free baseline: one ED* search, no rotations.

        What :func:`asmcap_read_cost` assumes when no profile is
        passed — a plain single-search read.
        """
        return cls(condition="plain", searches_per_read=1.0,
                   rotation_cycles_per_read=0.0)

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
        )


@dataclass
class Fig8Result:
    """All systems' per-read costs plus derived ratios.

    ``profiles`` holds the per-condition strategy statistics the
    ASMCap-with-strategies cost consumed.
    """

    costs: dict[str, SystemCost]
    profiles: dict[str, StrategyProfile] = field(default_factory=dict)

    def speedup_over(self, baseline: str, system: str) -> float:
        return (self.costs[baseline].latency_ns
                / self.costs[system].latency_ns)

    def energy_efficiency_over(self, baseline: str, system: str) -> float:
        return (self.costs[baseline].energy_joules
                / self.costs[system].energy_joules)

    def render_profiles(self) -> str:
        """The per-condition strategy statistics Fig. 8 charged."""
        if not self.profiles:
            return ""
        rows = [(condition, f"{profile.searches_per_read:.3f}",
                 f"{profile.rotation_cycles_per_read:.2f}")
                for condition, profile in sorted(self.profiles.items())]
        return format_table(
            ["Condition", "searches/read", "rot. cycles/read"], rows,
            title="Strategy statistics (off-line HDAC/TASR policies, "
                  "averaged over each condition's sweep)",
        )

    def render(self) -> str:
        rows = [
            (name,
             self.costs[name].latency_ns,
             self.costs[name].energy_joules * 1e9,
             format_ratio(self.speedup_over(name, "ASMCap w/ H&T"))
             if name != "ASMCap w/ H&T" else "1x",
             format_ratio(self.energy_efficiency_over(name, "ASMCap w/ H&T"))
             if name != "ASMCap w/ H&T" else "1x")
            for name in SYSTEMS
        ]
        table = format_table(
            ["System", "Latency/read (ns)", "Energy/read (nJ)",
             "ASMCap w/ speedup", "ASMCap w/ energy-eff"],
            rows, title="Fig. 8: system-level comparison (regenerated)",
        )
        anchor_rows = []
        key_map = {"CM-CPU": "cm_cpu", "ReSMA": "resma",
                   "SaVI": "savi", "EDAM": "edam"}
        for name, key in key_map.items():
            anchor_rows.append((
                name,
                format_ratio(self.speedup_over(name, "ASMCap w/o H&T")),
                format_ratio(constants.FIG8_SPEEDUP_NO_STRATEGY[key]),
                format_ratio(self.speedup_over(name, "ASMCap w/ H&T")),
                format_ratio(constants.FIG8_SPEEDUP_WITH_STRATEGY[key]),
                format_ratio(
                    self.energy_efficiency_over(name, "ASMCap w/o H&T")),
                format_ratio(constants.FIG8_ENERGY_EFF_NO_STRATEGY[key]),
                format_ratio(
                    self.energy_efficiency_over(name, "ASMCap w/ H&T")),
                format_ratio(constants.FIG8_ENERGY_EFF_WITH_STRATEGY[key]),
            ))
        anchors = format_table(
            ["vs", "speedup w/o", "paper", "speedup w/", "paper",
             "energy w/o", "paper", "energy w/", "paper"],
            anchor_rows, title="Measured ratios vs paper anchors",
        )
        parts = [table, anchors]
        profiles = self.render_profiles()
        if profiles:
            parts.append(profiles)
        return "\n".join(parts)


def strategy_profile(condition: str) -> StrategyProfile:
    """One condition's strategy statistics, from the off-line policies.

    For each threshold ``T`` of the condition's Fig. 7 sweep a read
    costs the base ED* search, HDAC's extra search when
    ``p(T) >= 1 %``, and one rotated search per TASR offset (plus
    ``|offset|`` shift cycles each) when ``T >= Tl``, rotating both
    ways as the evaluated matcher does.  The profile
    averages those counts over the sweep.
    """
    thresholds = tuple(thresholds_for(condition))
    model = resolve_condition(condition)
    offsets = rotation_offsets(constants.TASR_NR, "both")
    lower_bound = policy.tasr_lower_bound(model.indel_rate,
                                          constants.READ_LENGTH)
    searches = []
    cycles = []
    for t in thresholds:
        n = 1.0
        p = policy.hdac_probability(model.substitution, model.indel_rate, t)
        if policy.hdac_enabled(p):
            n += 1.0
        c = 0.0
        if policy.tasr_enabled(t, lower_bound):
            n += len(offsets)
            c = float(sum(abs(o) for o in offsets))
        searches.append(n)
        cycles.append(c)
    return StrategyProfile(
        condition=condition.strip().upper(),
        searches_per_read=float(np.mean(searches)),
        rotation_cycles_per_read=float(np.mean(cycles)),
        thresholds=thresholds,
        per_threshold_searches=tuple(searches),
        per_threshold_rotation_cycles=tuple(cycles),
    )


def asmcap_read_cost(profile: "StrategyProfile | None" = None
                     ) -> SystemCost:
    """ASMCap per-read cost with the pipelined extra-search model.

    Pass a :class:`StrategyProfile`; ``None`` means the strategy-free
    baseline, :meth:`StrategyProfile.plain` (one ED* search, no
    rotations).
    """
    if profile is None:
        profile = StrategyProfile.plain()
    elif not isinstance(profile, StrategyProfile):
        raise ExperimentError(
            f"asmcap_read_cost takes a StrategyProfile, got "
            f"{type(profile).__name__} (build one with "
            f"strategy_profile or StrategyProfile.plain())"
        )
    searches_per_read = profile.searches_per_read
    rotation_cycles_per_read = profile.rotation_cycles_per_read
    period = steady_state_search_period_ns()
    search_cycle = constants.ASMCAP_SEARCH_TIME_NS
    latency = (period + (searches_per_read - 1.0) * search_cycle
               + rotation_cycles_per_read * SHIFT_CYCLE_NS)
    per_array = sum(component_energies_per_search().values())
    energy = per_array * constants.ARRAY_COUNT * searches_per_read
    name = "ASMCap w/ H&T" if searches_per_read > 1.0 else "ASMCap w/o H&T"
    return SystemCost(name=name, latency_ns=latency, energy_joules=energy)


def edam_read_cost() -> SystemCost:
    """EDAM per-read cost (one search per read, its own issue period)."""
    return SystemCost(
        name="EDAM",
        latency_ns=edam_issue_period_ns(),
        energy_joules=edam_search_energy_per_array() * constants.ARRAY_COUNT,
    )


def compute_fig8() -> Fig8Result:
    """Regenerate the Fig. 8 comparison.

    The ASMCap-with-strategies cost charges the average of the two
    conditions' :func:`strategy_profile`.
    """
    cm = CmCpuBaseline()
    resma = ResmaBaseline()
    savi = SaviBaseline(generate_reference(4096, seed=0))

    profiles = {label: strategy_profile(label)
                for label in ("A", "B")}
    combined = StrategyProfile.average(profiles.values())

    # "w/o H&T" is a one-search, zero-rotation read: the strategy-free
    # baseline profile.
    plain = asmcap_read_cost(StrategyProfile.plain())
    full = asmcap_read_cost(combined)
    read_length = constants.READ_LENGTH
    costs = {
        "CM-CPU": SystemCost("CM-CPU", cm.read_latency_ns(read_length),
                             cm.read_energy_joules(read_length)),
        "ReSMA": SystemCost("ReSMA", resma.read_latency_ns(read_length),
                            resma.read_energy_joules(read_length)),
        "SaVI": SystemCost("SaVI", savi.read_latency_ns(read_length),
                           savi.read_energy_joules(read_length)),
        "EDAM": edam_read_cost(),
        "ASMCap w/o H&T": plain,
        "ASMCap w/ H&T": full,
    }
    return Fig8Result(costs=costs, profiles=profiles)


def main() -> str:
    """Run and render Fig. 8."""
    return compute_fig8().render()


if __name__ == "__main__":
    print(main())
