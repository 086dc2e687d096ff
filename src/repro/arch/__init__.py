"""System architecture: timing, power, autotuning.

* :mod:`repro.arch.timing` — cycle-level latency model;
* :mod:`repro.arch.power` — Section V-B area/power breakdown;
* :mod:`repro.arch.autotune` — micro-batch planning.

The banked system of Fig. 4(a) is modelled analytically: the per-read
system cost behind Fig. 8 is
:func:`repro.experiments.fig8.asmcap_read_cost`.
"""

from repro.arch.autotune import plan_microbatch
from repro.arch.power import (
    PowerBreakdown,
    array_area_mm2,
    array_power_breakdown,
    cell_area_fraction,
    cell_area_um2,
    component_energies_per_search,
    steady_state_search_period_ns,
)
from repro.arch.timing import TimingModel

__all__ = [
    "PowerBreakdown",
    "TimingModel",
    "array_area_mm2",
    "array_power_breakdown",
    "cell_area_fraction",
    "cell_area_um2",
    "component_energies_per_search",
    "plan_microbatch",
    "steady_state_search_period_ns",
]
