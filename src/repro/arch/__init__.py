"""System architecture: timing, power, autotuning.

* :mod:`repro.arch.timing` — cycle-level latency model;
* :mod:`repro.arch.power` — Section V-B area/power breakdown;
* :mod:`repro.arch.autotune` — micro-batch, pool, sweep-worker and
  kernel-backend planning.

The banked system of Fig. 4(a) is modelled analytically: the per-read
system cost behind Fig. 8 is
:func:`repro.experiments.fig8.asmcap_read_cost`.
"""

from repro.arch.autotune import (
    ServicePoolPlan,
    plan_microbatch,
    plan_service_pool,
    sweep_worker_count,
)
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
    "ServicePoolPlan",
    "TimingModel",
    "array_area_mm2",
    "array_power_breakdown",
    "cell_area_fraction",
    "cell_area_um2",
    "component_energies_per_search",
    "plan_microbatch",
    "plan_service_pool",
    "steady_state_search_period_ns",
    "sweep_worker_count",
]
