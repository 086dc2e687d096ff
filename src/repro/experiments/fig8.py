"""Fig. 8 — system-level speedup and energy efficiency vs prior ASM
accelerators (CM-CPU, ReSMA, SaVI, EDAM, ASMCap w/o and w/ strategies).

Per-read latency and energy models (512 arrays x 256 x 256, 64 Mb):

* **ASMCap** — the first search of a read costs one steady-state issue
  period (fetch + broadcast + load + search; derived from the Section
  V-B power anchor).  HDAC's Hamming search and TASR's rotated searches
  reuse the already-loaded read, so each extra search adds one search
  cycle (plus shift cycles for rotations).  The strategy statistics are
  **measured** on the functional engine: one
  :meth:`~repro.core.matcher.AsmCapMatcher.match_sweep` pass per
  condition, with the per-threshold HDAC/TASR search counts and
  rotation cycles harvested from the array's cost ledger
  (:func:`repro.cost.profile.measure_strategy_profile`), averaged over
  each condition's threshold sweep and then over the two conditions —
  the same "average effect of the proposed strategies" the paper
  reports.  The old policy-derived profile
  (:func:`strategy_search_profile`) is kept as an analytic cross-check
  the driver prints next to the measurement.
* **EDAM** — same structure in the current domain (pre-charge +
  discharge + sample), period derived from its Table-I cell power.
* **CM-CPU / ReSMA / SaVI** — the baseline cost models of
  :mod:`repro.baselines` (see DESIGN.md for their calibration).

The driver prints measured ratios next to the paper's reported anchors
so deviations are visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.cost.profile import StrategyProfile, measure_strategy_profile
from repro.errors import ExperimentError
from repro.eval.reporting import format_ratio, format_table
from repro.genome.edits import ErrorModel
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


@dataclass
class Fig8Result:
    """All systems' per-read costs plus derived ratios.

    ``profiles`` holds the per-condition strategy statistics the
    ASMCap-with-strategies cost consumed (measured from the functional
    engine by default); ``analytic_profiles`` holds the policy-derived
    cross-check for the same conditions.
    """

    costs: dict[str, SystemCost]
    profiles: dict[str, StrategyProfile] = field(default_factory=dict)
    analytic_profiles: dict[str, StrategyProfile] = field(
        default_factory=dict
    )

    def speedup_over(self, baseline: str, system: str) -> float:
        return (self.costs[baseline].latency_ns
                / self.costs[system].latency_ns)

    def energy_efficiency_over(self, baseline: str, system: str) -> float:
        return (self.costs[baseline].energy_joules
                / self.costs[system].energy_joules)

    def render_profiles(self) -> str:
        """The measured strategy statistics vs the analytic cross-check."""
        if not self.profiles:
            return ""
        rows = []
        for condition, profile in sorted(self.profiles.items()):
            analytic = self.analytic_profiles.get(condition)
            rows.append((
                condition,
                f"{profile.searches_per_read:.3f}",
                ("-" if analytic is None
                 else f"{analytic.searches_per_read:.3f}"),
                f"{profile.rotation_cycles_per_read:.2f}",
                ("-" if analytic is None
                 else f"{analytic.rotation_cycles_per_read:.2f}"),
                profile.source,
            ))
        return format_table(
            ["Condition", "searches/read", "analytic", "rot. cycles/read",
             "analytic", "source"],
            rows,
            title="Strategy statistics (one match_sweep pass per "
                  "condition, ledger-harvested)",
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


def strategy_search_profile(condition: str,
                            tasr_direction: str = "both"
                            ) -> tuple[float, float]:
    """(avg searches per read, avg rotation cycles per read) with the
    strategies enabled, averaged over the condition's threshold sweep.

    Derived purely from the policies — HDAC issues its extra search
    when ``p >= 1 %``, TASR issues one search per rotation offset when
    ``T >= Tl``.  Kept as the analytic *cross-check* of the measured
    :func:`repro.cost.profile.measure_strategy_profile`; the two agree
    whenever the functional matcher applies the paper's policies.
    """
    label = condition.strip().upper()
    if label == "A":
        model = ErrorModel.condition_a()
        thresholds = constants.CONDITION_A_THRESHOLDS
    elif label == "B":
        model = ErrorModel.condition_b()
        thresholds = constants.CONDITION_B_THRESHOLDS
    else:
        raise ExperimentError(f"unknown condition {condition!r}")
    from repro.core.tasr import rotation_offsets
    offsets = rotation_offsets(constants.TASR_NR, tasr_direction)
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
    return float(np.mean(searches)), float(np.mean(cycles))


def analytic_strategy_profile(condition: str,
                              tasr_direction: str = "both"
                              ) -> StrategyProfile:
    """:func:`strategy_search_profile` as a :class:`StrategyProfile`."""
    searches, cycles = strategy_search_profile(condition, tasr_direction)
    return StrategyProfile(
        condition=condition.strip().upper(),
        searches_per_read=searches,
        rotation_cycles_per_read=cycles,
        source="analytic",
    )


def asmcap_read_cost(profile: "StrategyProfile | None" = None,
                     *,
                     n_arrays: int = constants.ARRAY_COUNT) -> SystemCost:
    """ASMCap per-read cost with the pipelined extra-search model.

    Pass a :class:`~repro.cost.profile.StrategyProfile` (measured or
    analytic); ``None`` means the strategy-free baseline,
    :meth:`~repro.cost.profile.StrategyProfile.plain` (one ED* search,
    no rotations).
    """
    if profile is None:
        profile = StrategyProfile.plain()
    elif not isinstance(profile, StrategyProfile):
        raise ExperimentError(
            f"asmcap_read_cost takes a StrategyProfile, got "
            f"{type(profile).__name__} (build one with "
            f"analytic_strategy_profile, measure_strategy_profile or "
            f"StrategyProfile.plain())"
        )
    searches_per_read = profile.searches_per_read
    rotation_cycles_per_read = profile.rotation_cycles_per_read
    period = steady_state_search_period_ns()
    search_cycle = constants.ASMCAP_SEARCH_TIME_NS
    latency = (period + (searches_per_read - 1.0) * search_cycle
               + rotation_cycles_per_read * SHIFT_CYCLE_NS)
    per_array = sum(component_energies_per_search().values())
    energy = per_array * n_arrays * searches_per_read
    name = "ASMCap w/ H&T" if searches_per_read > 1.0 else "ASMCap w/o H&T"
    return SystemCost(name=name, latency_ns=latency, energy_joules=energy)


def edam_read_cost(n_arrays: int = constants.ARRAY_COUNT) -> SystemCost:
    """EDAM per-read cost (one search per read, its own issue period)."""
    return SystemCost(
        name="EDAM",
        latency_ns=edam_issue_period_ns(),
        energy_joules=edam_search_energy_per_array() * n_arrays,
    )


def compute_fig8(read_length: int = constants.READ_LENGTH,
                 tasr_direction: str = "both",
                 measured: bool = True,
                 seed: int = 0) -> Fig8Result:
    """Regenerate the Fig. 8 comparison.

    With ``measured=True`` (the default) the ASMCap strategy
    statistics come from one functional ``match_sweep`` pass per
    condition, harvested from the cost ledger; ``measured=False``
    falls back to the policy-derived analytic profile.  Both paths
    also compute the analytic profile so the result can render the
    cross-check.
    """
    cm = CmCpuBaseline()
    resma = ResmaBaseline()
    savi = SaviBaseline(generate_reference(4096, seed=0))

    analytic = {label: analytic_strategy_profile(label, tasr_direction)
                for label in ("A", "B")}
    if measured:
        profiles = {
            label: measure_strategy_profile(
                label, tasr_direction=tasr_direction, seed=seed,
            )
            for label in ("A", "B")
        }
    else:
        profiles = analytic
    combined = StrategyProfile.average(
        [profiles["A"], profiles["B"]]
    )

    # "w/o H&T" is a one-search, zero-rotation read: the strategy-free
    # baseline profile.
    plain = asmcap_read_cost(StrategyProfile.plain())
    full = asmcap_read_cost(combined)
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
    return Fig8Result(costs=costs, profiles=profiles,
                      analytic_profiles=analytic)


def main() -> str:
    """Run and render Fig. 8 (measured strategy statistics)."""
    return compute_fig8().render()


if __name__ == "__main__":
    print(main())
