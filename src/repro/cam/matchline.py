"""Matchline transfer functions: charge domain vs current domain (Fig. 3).

A matchline (ML) aggregates the outputs of all N cells in a row into one
analog voltage that encodes the mismatch count ``n_mis``:

* **Charge domain** (ASMCap): each cell drives VDD (mismatch) or GND
  (match) onto the bottom plate of its capacitor; all top plates share
  the ML.  The steady-state ML voltage is the capacitive divider

      V_ML = n_mis / N * VDD,

  time-independent, no pre-charge needed.

* **Current domain** (EDAM): the ML is pre-charged to VDD and every
  mismatched cell turns on a discharge transistor, so the droop slope
  scales with ``n_mis``; the sensed value depends on the sampling
  instant.  We model the *sampled* voltage at the nominal sample time
  ``t_s`` chosen so a fully mismatched row just reaches GND:

      V_ML(t_s) = VDD * (1 - n_mis / N),

  which makes the two domains directly comparable (both map the
  mismatch count onto an N-level voltage scale) while their *noise*
  models differ (:mod:`repro.cam.variation`).

Both classes return ideal voltages; callers add variation noise
explicitly so experiments can separate systematic and random effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import CamConfigError


def _check_counts(n_mismatch: np.ndarray, n_cells: int) -> np.ndarray:
    counts = np.asarray(n_mismatch, dtype=float)
    if n_cells <= 0:
        raise CamConfigError(f"n_cells must be positive, got {n_cells}")
    if (counts < 0).any() or (counts > n_cells).any():
        raise CamConfigError("mismatch counts must be within 0..n_cells")
    return counts


@dataclass(frozen=True)
class ChargeDomainMatchline:
    """ASMCap's capacitive matchline: ``V_ML = n_mis/N * VDD``."""

    vdd: float = constants.VDD_VOLTS

    def ideal_voltage(self, n_mismatch: "int | np.ndarray",
                      n_cells: int) -> np.ndarray:
        """Steady-state ML voltage for each mismatch count."""
        counts = _check_counts(n_mismatch, n_cells)
        return counts / n_cells * self.vdd

    #: The capacitive ML needs no pre-charge phase (Section III-C).
    REQUIRES_PRECHARGE = False
    #: ...and no sample-and-hold, because the output is static.
    REQUIRES_SAMPLING = False


@dataclass(frozen=True)
class CurrentDomainMatchline:
    """EDAM's discharge matchline, sampled at the nominal instant.

    The ML voltage decreases over time; ``sampled_voltage`` evaluates it
    at the design-point sample time where a fully mismatched row has
    discharged to GND.
    """

    vdd: float = constants.VDD_VOLTS

    def sampled_voltage(self, n_mismatch: "int | np.ndarray",
                        n_cells: int) -> np.ndarray:
        """ML voltage at the nominal sample time."""
        counts = _check_counts(n_mismatch, n_cells)
        return self.vdd * (1.0 - counts / n_cells)

    REQUIRES_PRECHARGE = True
    REQUIRES_SAMPLING = True
