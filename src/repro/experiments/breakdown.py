"""Section V-B — area and power breakdown of a 256 x 256 ASMCap array.

Paper numbers: 1.58 mm^2 and 7.67 mW per array; > 99 % of area in the
cells; power split ~75 % cells / 19 % shift registers / 6 % SAs.
The area and the power *split* come from the models; the total power
anchors the steady-state search period (see :mod:`repro.arch.power`).

The component fractions are read from the cost-ledger views
(:func:`repro.cost.views.component_energies` over the synthetic
typical-activity pass, via :mod:`repro.arch.power`) — the same
accounting every measured search pass of the functional engine flows
through.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.arch.power import (
    PowerBreakdown,
    array_area_mm2,
    array_power_breakdown,
    cell_area_fraction,
    steady_state_search_period_ns,
)
from repro.eval.reporting import format_table


@dataclass(frozen=True)
class BreakdownResult:
    """Regenerated Section V-B quantities."""

    area_mm2: float
    cell_area_fraction: float
    power: PowerBreakdown
    search_period_ns: float

    def render(self) -> str:
        area_rows = [
            ("Array area", f"{self.area_mm2:.2f} mm2",
             f"{constants.ARRAY_AREA_MM2:.2f} mm2"),
            ("Cell area share", f"{self.cell_area_fraction * 100:.1f} %",
             "> 99 %"),
        ]
        fractions = self.power.fractions
        power_rows = [
            ("Total power", f"{self.power.total_w * 1e3:.2f} mW",
             f"{constants.ARRAY_POWER_MW:.2f} mW"),
            ("Cells", f"{fractions['cells'] * 100:.1f} %",
             f"{constants.POWER_FRACTION_CELLS * 100:.0f} %"),
            ("Shift registers",
             f"{fractions['shift_registers'] * 100:.1f} %",
             f"{constants.POWER_FRACTION_SHIFT_REGISTERS * 100:.0f} %"),
            ("Sense amplifiers", f"{fractions['sense_amps'] * 100:.1f} %",
             f"{constants.POWER_FRACTION_SENSE_AMPS * 100:.0f} %"),
            ("Implied search period", f"{self.search_period_ns:.2f} ns",
             "(model-derived)"),
        ]
        return (format_table(["Area metric", "Measured", "Paper"], area_rows,
                             title="Section V-B: area breakdown (256x256)")
                + "\n"
                + format_table(["Power metric", "Measured", "Paper"],
                               power_rows,
                               title="Section V-B: power breakdown"))


def compute_breakdown() -> BreakdownResult:
    """Regenerate the Section V-B breakdown (256 x 256)."""
    rows, cols = constants.ARRAY_ROWS, constants.ARRAY_COLS
    return BreakdownResult(
        area_mm2=array_area_mm2(rows, cols),
        cell_area_fraction=cell_area_fraction(rows, cols),
        power=array_power_breakdown(rows, cols),
        search_period_ns=steady_state_search_period_ns(rows, cols),
    )


def main() -> str:
    """Run and render the breakdown."""
    return compute_breakdown().render()


if __name__ == "__main__":
    print(main())
