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

The functional matcher is a plain ED* decision over a current-domain
:class:`~repro.cam.array.CamArray` — no HDAC, no TASR.  Optionally the
original *Sequence Rotation* (SR) of the EDAM paper can be enabled: it
rotates unconditionally (no ``Tl`` guard), which is exactly what TASR
improves on; the ablation benches use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import constants
from repro.cam.array import CamArray, as_read_codes
from repro.cam.cell import MatchMode
from repro.core.matcher import (
    PASS_ED_STAR,
    PASS_ROTATION,
    pass_keys,
    query_key_vector,
    read_block,
)
from repro.core.tasr import DIRECTIONS, rotation_offsets
from repro.errors import CamConfigError


@dataclass(frozen=True)
class EdamOutcome:
    """Decisions and costs for one EDAM read match."""

    decisions: np.ndarray
    n_searches: int
    energy_joules: float
    latency_ns: float


class EdamMatcher:
    """Functional EDAM matcher over a current-domain array.

    Parameters
    ----------
    array:
        A ``domain="current"`` CAM array (constructed here if omitted).
    enable_sr:
        Enable EDAM's unconditional Sequence Rotation with ``nr``
        rotations per direction.
    """

    def __init__(self, array: "CamArray | None" = None,
                 rows: int = constants.ARRAY_ROWS,
                 cols: int = constants.ARRAY_COLS,
                 enable_sr: bool = False,
                 sr_nr: int = constants.TASR_NR,
                 sr_direction: str = "both",
                 noisy: bool = True,
                 seed: int = 0):
        if array is None:
            array = CamArray(rows=rows, cols=cols, domain="current",
                             noisy=noisy, seed=seed)
        if array.domain != "current":
            raise CamConfigError(
                "EDAM requires a current-domain array, got "
                f"{array.domain!r}"
            )
        if sr_direction not in DIRECTIONS:
            raise CamConfigError(f"invalid sr_direction {sr_direction!r}")
        self._array = array
        self._enable_sr = enable_sr
        self._sr_nr = sr_nr
        self._sr_direction = sr_direction

    @property
    def array(self) -> CamArray:
        return self._array

    @property
    def enable_sr(self) -> bool:
        return self._enable_sr

    def store(self, segments: np.ndarray) -> None:
        self._array.store(segments)

    def _passes(self, reads: np.ndarray, thresholds,
                query_keys: "Sequence[int] | None", sweep: bool) -> list:
        """The base ED* pass, then one rotated pass per SR offset.

        EDAM's SR fires unconditionally, so every pass covers the whole
        ``(B, N)`` block at every threshold: a batch (``sweep=False``,
        scalar or ``(B,)`` thresholds) or a sweep (``(T,)`` vector).
        The base and every rotated pass's counts come from one encode
        of the block (``mismatch_counts_batch(..., rotations=)``).
        """
        search = self._array.search_sweep if sweep else \
            self._array.search_batch
        keys = query_key_vector(query_keys, reads.shape[0])
        offsets = (0,)
        if self._enable_sr:
            offsets += rotation_offsets(self._sr_nr, self._sr_direction)
        counts = self._array.mismatch_counts_batch(reads, MatchMode.ED_STAR,
                                                   rotations=offsets)
        return [search(reads, thresholds, MatchMode.ED_STAR,
                       noise_keys=pass_keys(keys, PASS_ROTATION + offset
                                            if offset else PASS_ED_STAR),
                       precomputed_counts=pass_counts, rotation=offset)
                for offset, pass_counts in zip(offsets, counts, strict=True)]

    def match(self, read: np.ndarray, threshold: int,
              query_key: "int | None" = None) -> EdamOutcome:
        """Match one read at threshold ``T`` (plain ED*, optional SR).

        The one-row slice of the keyed block: keyed by ``query_key``
        (default 0, the read's index in a one-read block), so the
        decisions equal row ``q`` of any :meth:`match_sweep` call that
        keys that read ``query_key``.
        """
        read = as_read_codes(read)
        results = self._passes(read[None, :], threshold,
                               None if query_key is None else [query_key],
                               sweep=False)
        # Pre-charge *energy* is already inside the array's
        # current-domain search energy (repro.cost.views); only the
        # pre-charge *latency* phase is added here.
        energy = latency = 0.0
        for result in results:
            energy += float(result.energy_per_query_joules[0])
            latency += result.latency_ns + constants.EDAM_PRECHARGE_TIME_NS
        return EdamOutcome(
            decisions=np.logical_or.reduce([r.matches[0] for r in results]),
            n_searches=len(results), energy_joules=energy,
            latency_ns=latency,
        )

    def match_sweep(self, reads: np.ndarray,
                    thresholds: "Sequence[int] | np.ndarray",
                    query_keys: "Sequence[int] | None" = None) -> np.ndarray:
        """Decisions for a ``(B, N)`` block over a whole threshold sweep.

        EDAM has no threshold-dependent escalation, so its sweep is the
        pure form of the trick: one ED* count + keyed-noise pass (plus
        one rotated pass per SR offset when SR is enabled) and the
        whole threshold vector applied as sense-amp reference
        comparisons.  Slice ``t``, row ``q`` is bit-identical to
        ``match(reads[q], thresholds[t], query_key=keys[q])``.
        """
        results = self._passes(read_block(reads, "match_sweep"),
                               thresholds, query_keys, sweep=True)
        return np.logical_or.reduce([r.matches for r in results])


def edam_search_energy_per_array(mismatch_fraction: float =
                                 constants.TYPICAL_ED_STAR_MISMATCH_FRACTION,
                                 rows: int = constants.ARRAY_ROWS,
                                 cols: int = constants.ARRAY_COLS) -> float:
    """Closed-form EDAM per-search array energy at typical activity."""
    if not 0.0 <= mismatch_fraction <= 1.0:
        raise CamConfigError("mismatch_fraction must be in [0, 1]")
    precharge = constants.EDAM_ML_PRECHARGE_CAP_F * constants.VDD_VOLTS**2 * rows
    discharge = (constants.EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J
                 * mismatch_fraction * cols * rows)
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
