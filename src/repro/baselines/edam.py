"""EDAM baseline (ISCA 2022): current-domain ML-CAM ASM accelerator.

EDAM introduced the neighbour-tolerant matching rule ASMCap inherits
(the ED* of Fig. 2) but senses the mismatch count in the *current
domain*: the matchline is pre-charged, every mismatched cell discharges
it, and the droop is sampled after a fixed interval.  Consequences
reproduced by this model (Sections II-C, III, V):

* per-cell current variation (sigma_I/mu_I = 2.5 %) plus
  timing-dependent sampling limit it to 44 distinguishable states —
  sensing a 256-cell row is noisy near the threshold;
* every search pays a pre-charge phase (latency and energy);
* the sampled decision needs a sample-and-hold, stretching the search
  cycle to 2.4 ns vs ASMCap's 0.9 ns (Table I).

The functional matcher is the plain ED* decision the paper evaluates
(Fig. 7) over a noisy current-domain
:class:`~repro.cam.array.CamArray` — no HDAC, no rotation.  EDAM's
original *Sequence Rotation* (SR) rotates unconditionally, which is
exactly what TASR improves on; the TASR ablation's ``gamma = 0``
variant runs it on ASMCap (every ``T >= 1``, as ``Tl`` is clamped to
at least 1).

The matcher has no flow of its own: it runs ASMCap's
:func:`~repro.core.matcher.keyed_flow` with HDAC off, no rotation
offsets and the policy's "never" bound ``N + 1``, and
:meth:`EdamMatcher.match` returns the same
:class:`~repro.core.matcher.MatchOutcome` as ASMCap's matcher.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import constants
from repro.cam.array import CamArray
from repro.core.matcher import (
    MatchOutcome,
    MatchSweepOutcome,
    keyed_flow,
    match_read,
    read_block,
)
from repro.errors import CamConfigError
from repro.knobs import check_thresholds


class EdamMatcher:
    """Functional EDAM matcher over a current-domain array.

    Parameters
    ----------
    array:
        A ``domain="current"`` CAM array (a noisy one is constructed
        here if omitted).
    """

    def __init__(self, array: "CamArray | None" = None,
                 rows: int = constants.ARRAY_ROWS,
                 cols: int = constants.ARRAY_COLS,
                 seed: int = 0):
        if array is None:
            array = CamArray(rows=rows, cols=cols, domain="current",
                             seed=seed)
        if array.domain != "current":
            raise CamConfigError(
                "EDAM requires a current-domain array, got "
                f"{array.domain!r}"
            )
        self._array = array
        #: The policy's "never" rotation bound: EDAM does not rotate.
        self._lower_bound = array.cols + 1

    @property
    def array(self) -> CamArray:
        return self._array

    def store(self, segments: np.ndarray) -> None:
        self._array.store(segments)

    def match(self, read: np.ndarray, threshold: int,
              query_key: "int | None" = None) -> MatchOutcome:
        """Match one read at threshold ``T`` (plain ED*).

        The one-row slice of the keyed flow
        (:func:`~repro.core.matcher.match_read`): the decisions equal
        row ``q`` of any :meth:`match_sweep` call that keys that read
        ``query_key``.  Pre-charge energy and latency are both inside
        the array's current-domain pass (:mod:`repro.cost.views`; the
        Table I cycle of :mod:`repro.arch.timing`), so the outcome's
        costs are the passes' own.
        """
        return match_read(self._flow, read, threshold, query_key)

    def match_sweep(self, reads: np.ndarray,
                    thresholds: "Sequence[int] | np.ndarray",
                    query_keys: "Sequence[int] | None" = None) -> np.ndarray:
        """Decisions for a ``(B, N)`` block over a whole threshold sweep.

        EDAM has no threshold-dependent escalation, so its sweep is the
        pure form of the trick: one ED* count + keyed-noise pass and
        the whole threshold vector applied as sense-amp reference
        comparisons.  Slice ``t``, row ``q`` is bit-identical to
        ``match(reads[q], thresholds[t], query_key=keys[q])``.
        """
        return self._flow(read_block(reads, "match_sweep"),
                          check_thresholds(thresholds), query_keys,
                          sweep=True).decisions

    def _flow(self, reads: np.ndarray, thresholds: np.ndarray,
              query_keys: "Sequence[int] | None",
              sweep: bool) -> MatchSweepOutcome:
        """:func:`~repro.core.matcher.keyed_flow` without HDAC or
        rotation."""
        return keyed_flow(self._array, reads, thresholds, query_keys,
                          sweep=sweep, offsets=(),
                          tasr_mask=thresholds >= self._lower_bound,
                          lower_bound=self._lower_bound)


def edam_search_energy_per_array(rows: int = constants.ARRAY_ROWS,
                                 cols: int = constants.ARRAY_COLS) -> float:
    """Closed-form EDAM per-search array energy at typical activity."""
    precharge = constants.EDAM_ML_PRECHARGE_CAP_F * constants.VDD_VOLTS**2 * rows
    discharge = (constants.EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J
                 * constants.TYPICAL_ED_STAR_MISMATCH_FRACTION * cols * rows)
    sense = constants.SA_ENERGY_PER_ROW_J * rows
    return precharge + discharge + sense


def edam_issue_period_ns(rows: int = constants.ARRAY_ROWS,
                         cols: int = constants.ARRAY_COLS) -> float:
    """Steady-state search period implied by EDAM's Table-I cell power.

    Mirrors :func:`repro.arch.power.steady_state_search_period_ns` for
    the current domain: period = per-search energy / average power.
    """
    energy = edam_search_energy_per_array(rows=rows, cols=cols)
    power = constants.EDAM_CELL_POWER_UW * 1e-6 * rows * cols
    return energy / power * 1e9
