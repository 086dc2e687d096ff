"""Single ASMCap cell logic model (Fig. 4(c)).

One cell stores one reference base and, during a search, sees three
searchline inputs: the co-located read base and its left and right
neighbours.  The comparison logic produces three partial match results

* ``O_L`` — stored base equals the read base one position to the left,
* ``O_C`` — stored base equals the co-located read base,
* ``O_R`` — stored base equals the read base one position to the right,

and two MUXes controlled by the shared mode-select signal ``S`` combine
them into the cell output ``O``:

* ``S = 1`` (ED* mode): ``O = not (O_L or O_C or O_R)`` — the cell
  contributes a *mismatch* only when all three comparisons fail;
* ``S = 0`` (HD mode): ``O = not O_C`` — plain Hamming behaviour.

``O = 1`` means "mismatched cell": the cell drives GND onto the bottom
plate of its capacitor... actually the matched cell drives GND and the
mismatched cell drives VDD, so that ``V_ML = n_mis / N * VDD`` rises
with the mismatch count (Section III-C).  The array model
(:mod:`repro.cam.array`) evaluates this logic vectorised; this class
exists for unit-level verification and didactic use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CamConfigError
from repro.genome import alphabet
from repro.knobs import check_integer


class MatchMode(enum.Enum):
    """The two search modes selected by the shared MUX signal ``S``."""

    ED_STAR = "ed_star"   # S = 1: O = O_C + O_L + O_R
    HAMMING = "hamming"   # S = 0: O = O_C

    @property
    def select_signal(self) -> int:
        """The value of ``S`` for this mode."""
        return 1 if self is MatchMode.ED_STAR else 0


#: Sentinel searchline value for a missing neighbour (row edge).  No
#: stored base can equal it, so the comparison contributes no match.
NO_NEIGHBOR = -1


@dataclass(frozen=True)
class PartialMatch:
    """The three comparator outputs of one cell for one search."""

    o_l: bool
    o_c: bool
    o_r: bool

    def combined(self, mode: MatchMode) -> bool:
        """The matched/mismatched decision after the mode MUX.

        Returns True when the cell is a *matched* cell.
        """
        if mode is MatchMode.ED_STAR:
            return self.o_l or self.o_c or self.o_r
        return self.o_c


class AsmCapCell:
    """Behavioural model of one ASMCap cell."""

    def __init__(self, stored_code: int):
        stored_code = check_integer("segment codes", stored_code)
        if not 0 <= stored_code < alphabet.ALPHABET_SIZE:
            raise CamConfigError(
                f"segment codes must be 2-bit (0..3), got {stored_code}"
            )
        self._stored = stored_code

    @property
    def stored_code(self) -> int:
        return self._stored

    @property
    def stored_base(self) -> str:
        return alphabet.CODE_TO_BASE[self._stored]

    def compare(self, left: int, co_located: int, right: int) -> PartialMatch:
        """Evaluate the three comparators against searchline inputs.

        Any input may be :data:`NO_NEIGHBOR` at the row edges.
        """
        return PartialMatch(
            o_l=left == self._stored,
            o_c=co_located == self._stored,
            o_r=right == self._stored,
        )

    def output(self, left: int, co_located: int, right: int,
               mode: MatchMode) -> int:
        """Cell output ``O``: 1 = mismatched cell, 0 = matched cell."""
        return 0 if self.compare(left, co_located, right).combined(mode) else 1

    def capacitor_bottom_voltage(self, left: int, co_located: int, right: int,
                                 mode: MatchMode, vdd: float) -> float:
        """Voltage driven onto the capacitor bottom plate.

        Mismatched cells drive VDD, matched cells drive GND, producing
        the linear charge-domain transfer ``V_ML = n_mis/N * VDD``.
        """
        return vdd if self.output(left, co_located, right, mode) else 0.0

    #: Transistor budget per cell, used by the area model: two 6T SRAM
    #: cells, 3 x 4T comparison logic (XNOR-style compare per searchline
    #: pair), 2 NMOS mode MUXes (the HDAC addition, Section IV-A), and
    #: the output driver.  The MIM capacitor sits above the cell.
    TRANSISTOR_COUNT = 2 * 6 + 3 * 4 + 2 + 2
