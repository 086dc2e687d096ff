"""Area and power models: Section V-B breakdown and Table I rows.

**Area.**  Cell area scales with the transistor budget at a per-
transistor area calibrated to the ASMCap anchor (24 um^2 for a 28-T
cell at 65 nm).  The MIM capacitor sits above the cell (no footprint,
Section V-C).  Peripherals (decoder, WL/SL drivers, SAs, shift
registers) add well under 1 % for a 256 x 256 array, reproducing the
">99 % of area is cells" claim.

**Power.**  Steady-state array power is the per-search energy of each
component (cells via Eq. (1) at the typical genome ED* activity,
shift registers, SAs) divided by the steady-state search period.  The
period is *derived* from the 7.67 mW Section V-B anchor once, here, and
the resulting component fractions (~75 / 19 / 6 %) then follow from the
component energy models — they are checked, not hard-coded.

Since the cost-ledger refactor the per-component energies are read
from :func:`repro.cost.views.component_energies` over a synthetic
typical-activity search pass
(:func:`repro.cost.views.typical_search_event`) — the same view
every *measured* pass of the functional engine flows through, so the
Section V-B breakdown, Table I and the ledger cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.cam.cell import AsmCapCell
from repro.cost.views import component_energies, typical_search_event
from repro.errors import ArchConfigError

#: Layout area per transistor, calibrated so a 28-transistor ASMCap cell
#: occupies the Table-I 24 um^2 at 65 nm.
AREA_PER_TRANSISTOR_UM2 = constants.ASMCAP_CELL_AREA_UM2 / AsmCapCell.TRANSISTOR_COUNT

#: Peripheral area per array (decoder + drivers + SAs + shift registers),
#: 65 nm estimate for a 256-row / 512-searchline array.
PERIPHERAL_AREA_UM2 = 8000.0


def cell_area_um2(transistor_count: int = AsmCapCell.TRANSISTOR_COUNT) -> float:
    """Cell area from its transistor budget."""
    if transistor_count <= 0:
        raise ArchConfigError(
            f"transistor_count must be positive, got {transistor_count}"
        )
    return transistor_count * AREA_PER_TRANSISTOR_UM2


def array_area_mm2(rows: int = constants.ARRAY_ROWS,
                   cols: int = constants.ARRAY_COLS) -> float:
    """Total array area in mm^2 (cells + peripherals)."""
    if rows <= 0 or cols <= 0:
        raise ArchConfigError(f"geometry must be positive, got {rows}x{cols}")
    return (rows * cols * constants.ASMCAP_CELL_AREA_UM2
            + PERIPHERAL_AREA_UM2) * 1e-6


def cell_area_fraction(rows: int = constants.ARRAY_ROWS,
                       cols: int = constants.ARRAY_COLS) -> float:
    """Fraction of array area occupied by cells (paper: > 99 %)."""
    cells = rows * cols * constants.ASMCAP_CELL_AREA_UM2
    return cells / (cells + PERIPHERAL_AREA_UM2)


@dataclass(frozen=True)
class PowerBreakdown:
    """Steady-state power of one array, split by component (watts)."""

    cells_w: float
    shift_registers_w: float
    sense_amps_w: float

    @property
    def total_w(self) -> float:
        return self.cells_w + self.shift_registers_w + self.sense_amps_w

    @property
    def fractions(self) -> dict[str, float]:
        total = self.total_w
        if total == 0.0:
            return {"cells": 0.0, "shift_registers": 0.0, "sense_amps": 0.0}
        return {
            "cells": self.cells_w / total,
            "shift_registers": self.shift_registers_w / total,
            "sense_amps": self.sense_amps_w / total,
        }


def component_energies_per_search(rows: int = constants.ARRAY_ROWS,
                                  cols: int = constants.ARRAY_COLS
                                  ) -> dict[str, float]:
    """Per-search energy of each array component at typical activity.

    Computed as the ledger view over a synthetic typical-activity pass
    (every row at the typical ED* mismatch fraction), i.e. exactly the
    accounting a measured pass of the functional engine receives.
    """
    return component_energies(typical_search_event(rows=rows, cols=cols))


def steady_state_search_period_ns(rows: int = constants.ARRAY_ROWS,
                                  cols: int = constants.ARRAY_COLS) -> float:
    """Search issue period implied by the 7.67 mW Section V-B anchor."""
    energies = component_energies_per_search(rows, cols)
    total = sum(energies.values())
    return total / (constants.ARRAY_POWER_MW * 1e-3) * 1e9


def array_power_breakdown(rows: int = constants.ARRAY_ROWS,
                          cols: int = constants.ARRAY_COLS) -> PowerBreakdown:
    """Steady-state power split of one array.

    At the anchor-derived period the total reproduces the 7.67 mW
    figure exactly; the *split* across components comes from the
    component energy models.
    """
    energies = component_energies_per_search(rows, cols)
    scale = 1.0 / (steady_state_search_period_ns(rows, cols) * 1e-9)
    return PowerBreakdown(
        cells_w=energies["cells"] * scale,
        shift_registers_w=energies["shift_registers"] * scale,
        sense_amps_w=energies["sense_amps"] * scale,
    )
