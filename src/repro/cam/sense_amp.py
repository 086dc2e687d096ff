"""Sense amplifier: threshold comparison on the matchline voltage.

The SAs compare ``V_ML`` with a reference voltage ``V_ref`` and output
'match' when the mismatch count implied by the voltage is at most the
threshold ``T`` (Section III-B).  Polarity differs per domain:

* charge domain — ``V_ML`` *rises* with mismatches, match when
  ``V_ML <= V_ref``;
* current domain — the sampled voltage *falls* with mismatches, match
  when ``V_ML >= V_ref``.

**Boundary placement.**  The paper sets ``V_ref = T/N * VDD``, which
puts the reference exactly *on* the level of a row with ``n_mis == T``.
Any amount of noise then misjudges about half of the exactly-``T`` rows.
We default to the mid-point between levels ``T`` and ``T+1``
(``V_ref = (T + 1/2)/N * VDD``), which is what a designer would
calibrate to; ``strict_paper_rule=True`` reproduces the literal paper
equation.  This choice is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ThresholdError


@dataclass(frozen=True)
class SenseAmplifier:
    """Threshold comparator bank for one CAM array.

    Attributes
    ----------
    vdd:
        Supply voltage.
    rising:
        True for the charge domain (V_ML rises with mismatches), False
        for the sampled current domain.
    strict_paper_rule:
        Place ``V_ref`` exactly at ``T/N*VDD`` instead of the midpoint.
    """

    vdd: float = constants.VDD_VOLTS
    rising: bool = True
    strict_paper_rule: bool = False

    def reference_voltage(self, threshold: int, n_cells: int) -> float:
        """``V_ref`` for deciding ``n_mis <= threshold``."""
        return float(self.reference_voltages(np.asarray(threshold), n_cells))

    def reference_voltages(self, thresholds: np.ndarray,
                           n_cells: int) -> np.ndarray:
        """Vectorised ``V_ref`` for a block of per-query thresholds.

        The batched search path programs one reference per query (the
        SA reference DAC is shared across a row of queries streaming
        through the array); this evaluates them all at once.  The
        scalar :meth:`reference_voltage` delegates here so the two
        paths cannot drift.
        """
        if n_cells <= 0:
            raise ThresholdError(f"n_cells must be positive, got {n_cells}")
        thresholds = np.asarray(thresholds)
        if ((thresholds < 0) | (thresholds > n_cells)).any():
            raise ThresholdError(
                f"thresholds must be within 0..{n_cells}"
            )
        level = (thresholds.astype(float) if self.strict_paper_rule
                 else thresholds + 0.5)
        mismatch_fraction = level / n_cells
        if self.rising:
            return mismatch_fraction * self.vdd
        return (1.0 - mismatch_fraction) * self.vdd

    def decide_sweep(self, v_ml: np.ndarray, thresholds: np.ndarray,
                     n_cells: int) -> np.ndarray:
        """``(T, B, M)`` decisions of a ``(T, B)`` threshold block.

        The search pass's comparison: ``v_ml`` is the ``(B, M)``
        voltage block of one pass and ``thresholds`` a 2-D block whose
        axes broadcast against ``(T, B)`` — a batch is ``(1, B)``, a
        threshold sweep ``(T, 1)``.  The voltages are sampled once and
        every reference is compared against the same analog levels,
        which is what makes a threshold sweep cost one search pass.
        """
        thresholds = np.asarray(thresholds)
        if thresholds.ndim != 2:
            raise ThresholdError(
                f"thresholds must be a 2-D (T, B) block, got shape "
                f"{thresholds.shape}"
            )
        return self.decide(v_ml, thresholds, n_cells)

    def decide(self, v_ml: np.ndarray, threshold: "int | np.ndarray",
               n_cells: int) -> np.ndarray:
        """Match decisions for a block of matchline voltages.

        ``threshold`` is a scalar or an array broadcasting against the
        leading (query) axes of ``v_ml``: a ``(B,)`` vector pairs with
        a ``(B, M)`` voltage block, a ``(T, B)`` block yields
        ``(T, B, M)`` decisions.
        """
        v_ml = np.asarray(v_ml, dtype=float)
        v_ref = self.reference_voltages(threshold, n_cells)[..., None]
        if self.rising:
            return v_ml <= v_ref
        return v_ml >= v_ref
