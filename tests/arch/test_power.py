"""Tests for the area/power models (Section V-B anchors)."""

from __future__ import annotations

import pytest

from repro import constants
from repro.arch.power import (
    array_area_mm2,
    array_power_breakdown,
    cell_area_fraction,
    cell_area_um2,
    component_energies_per_search,
    steady_state_search_period_ns,
)
from repro.cam.cell import AsmCapCell
from repro.errors import ArchConfigError


class TestArea:
    def test_asmcap_cell_area_matches_table1(self):
        assert cell_area_um2(AsmCapCell.TRANSISTOR_COUNT) == pytest.approx(
            constants.ASMCAP_CELL_AREA_UM2
        )

    def test_array_area_matches_paper(self):
        """Section V-B: 1.58 mm^2 for the 256x256 array."""
        assert array_area_mm2() == pytest.approx(1.58, abs=0.02)

    def test_cells_dominate_area(self):
        """Section V-B: more than 99 % of area is cells."""
        assert cell_area_fraction() > 0.99

    def test_area_scales_with_cells(self):
        small = array_area_mm2(64, 64)
        large = array_area_mm2(256, 256)
        assert large > small * 10

    def test_invalid_transistors(self):
        with pytest.raises(ArchConfigError):
            cell_area_um2(0)


class TestPower:
    def test_total_power_matches_paper(self):
        """Section V-B: 7.67 mW per array."""
        breakdown = array_power_breakdown()
        assert breakdown.total_w * 1e3 == pytest.approx(
            constants.ARRAY_POWER_MW, rel=1e-6
        )

    def test_fractions_match_paper_split(self):
        """Section V-B: 75 / 19 / 6 % (cells / shift regs / SAs)."""
        fractions = array_power_breakdown().fractions
        assert fractions["cells"] == pytest.approx(0.75, abs=0.02)
        assert fractions["shift_registers"] == pytest.approx(0.19, abs=0.02)
        assert fractions["sense_amps"] == pytest.approx(0.06, abs=0.02)

    def test_fractions_sum_to_one(self):
        fractions = array_power_breakdown().fractions
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_component_energies_positive(self):
        energies = component_energies_per_search()
        assert all(value > 0 for value in energies.values())

    def test_cells_energy_matches_eq1_at_typical_activity(self):
        energies = component_energies_per_search()
        fraction = constants.TYPICAL_ED_STAR_MISMATCH_FRACTION
        n_mis = fraction * 256
        expected = (256 * n_mis * (256 - n_mis) / 256
                    * constants.MIM_CAPACITOR_FARADS * 1.2**2)
        assert energies["cells"] == pytest.approx(expected)

    def test_search_period_plausible(self):
        """The implied issue period must exceed the raw search time."""
        period = steady_state_search_period_ns()
        assert period > constants.ASMCAP_SEARCH_TIME_NS
        assert period < 100.0

    def test_explicit_period_scales_power(self):
        """Power is the per-search energy over the anchor period."""
        energy = sum(component_energies_per_search().values())
        period_s = steady_state_search_period_ns() * 1e-9
        assert array_power_breakdown().total_w == pytest.approx(
            energy / period_s)

