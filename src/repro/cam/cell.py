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

``O = 1`` means "mismatched cell": a matched cell drives GND onto the
bottom plate of its capacitor and a mismatched cell drives VDD, so that
``V_ML = n_mis / N * VDD`` rises with the mismatch count (Section
III-C).  The array model (:mod:`repro.cam.array`, through
:mod:`repro.distance.ed_star`) evaluates this logic vectorised.  What
stays here is the mode select and the cell's stored code and transistor
budget (the area model's input); the per-cell truth table is the test
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum

from repro.errors import CamConfigError
from repro.genome import alphabet
from repro.knobs import check_integer


class MatchMode(enum.Enum):
    """The two search modes selected by the shared MUX signal ``S``."""

    ED_STAR = "ed_star"   # S = 1: O = O_C + O_L + O_R
    HAMMING = "hamming"   # S = 0: O = O_C


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

    #: Transistor budget per cell, used by the area model: two 6T SRAM
    #: cells, 3 x 4T comparison logic (XNOR-style compare per searchline
    #: pair), 2 NMOS mode MUXes (the HDAC addition, Section IV-A), and
    #: the output driver.  The MIM capacitor sits above the cell.
    TRANSISTOR_COUNT = 2 * 6 + 3 * 4 + 2 + 2
