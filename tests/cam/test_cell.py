"""Tests for the single-cell comparison logic.

The per-cell truth table is the oracle in ``tests/oracles.py``; these
tests pin it to Fig. 4(c), and ``tests/distance/test_ed_star.py``
checks the vectorised kernel against it.
"""

from __future__ import annotations

import pytest
from oracles import NO_NEIGHBOR, cell_output, cell_planes

from repro.cam.cell import AsmCapCell, MatchMode
from repro.cam.matchline import ChargeDomainMatchline
from repro.errors import CamConfigError
from repro.genome.alphabet import CODE_TO_BASE


class TestConstruction:
    def test_stored_base(self):
        assert CODE_TO_BASE[AsmCapCell(2).stored_code] == "G"

    def test_invalid_code(self):
        with pytest.raises(CamConfigError):
            AsmCapCell(4)


class TestCompare:
    def test_co_located_match(self):
        # Stores C (1).
        assert cell_planes(1, 0, 1, 3) == (False, True, False)

    def test_left_match(self):
        assert cell_planes(1, 1, 0, 3)[0]

    def test_right_match(self):
        assert cell_planes(1, 0, 3, 1)[2]

    def test_no_neighbor_never_matches(self):
        assert not any(cell_planes(0, NO_NEIGHBOR, 1, NO_NEIGHBOR))


class TestModeMux:
    def test_ed_star_mode_ors_planes(self):
        # Only the left neighbour matches: ED* counts it as matched.
        assert cell_output(2, 2, 0, 1, MatchMode.ED_STAR) == 0
        # Hamming mode ignores neighbours: mismatched.
        assert cell_output(2, 2, 0, 1, MatchMode.HAMMING) == 1

    def test_all_mismatch(self):
        assert cell_output(3, 0, 1, 2, MatchMode.ED_STAR) == 1
        assert cell_output(3, 0, 1, 2, MatchMode.HAMMING) == 1


class TestCapacitorDrive:
    """A one-cell matchline reads the voltage its cell drives."""

    def test_mismatch_drives_vdd(self):
        output = cell_output(3, 0, 1, 2, MatchMode.ED_STAR)
        volts = ChargeDomainMatchline(vdd=1.2).ideal_voltage(output, 1)
        assert volts == 1.2

    def test_match_drives_gnd(self):
        output = cell_output(1, 0, 1, 2, MatchMode.ED_STAR)
        volts = ChargeDomainMatchline(vdd=1.2).ideal_voltage(output, 1)
        assert volts == 0.0


def test_transistor_budget_is_positive_and_stable():
    """The area model depends on this constant; lock its value."""
    assert AsmCapCell.TRANSISTOR_COUNT == 28
