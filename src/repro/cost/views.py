"""Derived cost views: energy / latency / power computed from events.

This module is the **single accounting implementation** behind every
joule and nanosecond the simulator reports.  A search-pass event
carries the per-row mismatch populations the pass observed; the views
push them through the physical models:

* cell energy — :func:`repro.cam.energy.search_energy_per_row`
  (Eq. (1)) in the charge domain, the pre-charge + discharge model in
  the current domain;
* peripheral energy — the sense-amp per-row constant and the
  shift-register per-search constant of :mod:`repro.constants`;
* latency — the event's own
  :attr:`~repro.cost.events.SearchPassEvent.latency_ns`: one search
  cycle per query at its recorded cycle time (the
  :mod:`repro.arch.timing` constants), with shift-register
  cycles tracked separately (the system model charges them where they
  serialise).

:class:`~repro.cam.array.CamArray` derives its per-search energies
from here, and its ledger folds the same views into the cumulative
:class:`SearchStats` at record time, which is what makes the scalar,
batched and sweep paths bit-identical by construction — they all read
the same view over the same events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import constants
from repro.cost.events import EdStarPass, SearchPassEvent
from repro.errors import CamConfigError

if TYPE_CHECKING:
    from repro.cost.ledger import CostLedger

# repro.cam.energy is imported lazily inside the view functions: the
# cam package's array module imports this module at load time, so a
# module-level import here would close an import cycle through
# repro.cam.__init__.


def search_pass_energy_per_query(event: SearchPassEvent) -> np.ndarray:
    """``(B,)`` array energy per query of one search pass.

    The charge domain applies Eq. (1) row by row, gathered from the
    per-level table (:func:`repro.cam.energy.search_energy_per_query`);
    the current domain charges the matchline pre-charge plus
    per-mismatch discharge.  Sense-amp energy is charged per stored
    row.
    """
    from repro.cam.energy import search_energy_per_query

    counts = event.mismatch_counts
    n_rows = counts.shape[1]
    if event.domain == "charge":
        cells = search_energy_per_query(counts, event.n_cells,
                                        vdd=event.vdd)
    else:
        precharge = (constants.EDAM_ML_PRECHARGE_CAP_F
                     * event.vdd**2 * n_rows)
        discharge = (constants.EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J
                     * counts.sum(axis=1, dtype=float))
        cells = precharge + discharge
    peripherals = constants.SA_ENERGY_PER_ROW_J * n_rows
    return np.asarray(cells + peripherals, dtype=float)


def component_energies(event: SearchPassEvent) -> dict[str, float]:
    """Per-component energy of one charge-domain search pass.

    The Section V-B split: cells (Eq. (1) over the pass's mismatch
    populations), shift registers (per-search constant — the registers
    hold and shift the read every cycle), sense amplifiers (per-row
    constant).  Summed over the pass's queries.  Only the charge
    domain has this decomposition; current-domain events are rejected
    rather than silently mis-accounted.
    """
    from repro.cam.energy import search_energy_per_row

    if event.domain != "charge":
        raise CamConfigError(
            "component_energies models the charge-domain Section V-B "
            f"split; got a {event.domain!r}-domain pass"
        )
    counts = event.mismatch_counts
    cells = float(search_energy_per_row(counts, event.n_cells,
                                        vdd=event.vdd).sum())
    shift = constants.SHIFT_REGISTER_ENERGY_PER_SEARCH_J * event.n_queries
    sense = constants.SA_ENERGY_PER_ROW_J * event.n_rows * event.n_queries
    return {"cells": cells, "shift_registers": shift, "sense_amps": sense}


def typical_search_event(rows: int = constants.ARRAY_ROWS,
                         cols: int = constants.ARRAY_COLS) -> EdStarPass:
    """A synthetic ED* pass at typical genome activity.

    Every row mismatches at the typical ED* fraction — the
    steady-state activity the Section V-B power breakdown and Table I
    assume.  Feeding this one event to :func:`component_energies`
    reproduces the analytic per-search component energies, so the
    breakdown experiments and the measured ledgers share one
    accounting model.
    """
    counts = np.full((1, rows),
                     constants.TYPICAL_ED_STAR_MISMATCH_FRACTION * cols)
    return EdStarPass(
        domain="charge", mode="ed_star", n_cells=cols,
        vdd=constants.VDD_VOLTS,
        search_time_ns=constants.ASMCAP_SEARCH_TIME_NS,
        mismatch_counts=counts,
        thresholds=np.zeros(1, dtype=int),
    )


@dataclass
class SearchStats:
    """Cumulative per-array counters (a view over the ledger).

    A sweep pass counts its ``B`` physical searches (each query's
    analog levels are computed once and reused for every threshold),
    not ``T * B``.
    """

    n_searches: int = 0
    n_rotation_cycles: int = 0
    total_energy_joules: float = 0.0
    total_latency_ns: float = 0.0


def search_stats(ledger: "CostLedger") -> SearchStats:
    """A copy of the cumulative counters *ledger* has folded so far.

    :meth:`~repro.cost.ledger.CostLedger.record` adds each search pass
    to them in record order — queries, rotation shift cycles, derived
    energy and latency — exactly the additions a loop over the whole
    recorded event sequence performs, so the totals are bit-identical
    to that loop's.
    """
    return replace(ledger._stats)
