"""Hamming-Distance Aid Correction — Algorithm 1 (Section IV-A).

**The misjudgment.** When edits are substitution-dominant, the ED*
neighbour comparisons *hide* real edits: a substituted base often still
matches a neighbour by chance, so ED* underestimates the true distance
and EDAM produces false positives whenever ``ED* <= T < ED``.

**The correction.** Search twice — once in ED* mode, once in HD mode
(one extra cycle; the array's mode MUX makes this free in area) — and,
when the two decisions disagree, trust the Hamming decision with
probability ``p`` (:func:`repro.core.policy.hdac_probability`).

The correction is applied independently per row (each row's SA produced
its own pair of decisions), with one uniform draw per disagreeing row,
exactly as Algorithm 1 generates ``X ~ U(0, 1)`` per matching result.

Every draw is keyed by ``(seed, query_key, pass)``, with HDAC's own
stream tag as the pass: the ``i``-th disagreeing row of a query takes
counter ``i`` of that query's stream (:mod:`repro.cam.keyed_noise`),
so the correction depends on the query's key and decisions alone —
never on batching or ordering.  A scalar match is a one-row block of
the same apply.
"""

from __future__ import annotations

import numpy as np

from repro.cam.keyed_noise import uniforms
from repro.errors import ThresholdError


def _keyed_selection(ed: np.ndarray, hd: np.ndarray,
                     p: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Rows where the keyed draw picks the Hamming decision.

    ``ed``/``hd`` are ``(..., M)`` decision blocks, ``p`` and
    ``states`` broadcast against the leading axes.  The ``i``-th
    disagreeing row of a query consumes counter ``i`` of that query's
    stream, whatever else rides in the block.
    """
    disagree = ed != hd
    # Ordinal of each disagreeing row within its query (garbage at
    # agreeing rows, masked out below; the uint64 wrap at -1 is fine).
    ordinal = np.cumsum(disagree, axis=-1, dtype=np.uint64) - np.uint64(1)
    draws = uniforms(states, ordinal)
    return disagree & (draws < p)


def hdac_correct_batch(ed_star_decisions: np.ndarray,
                       hamming_decisions: np.ndarray,
                       p: np.ndarray,
                       states: np.ndarray) -> np.ndarray:
    """Vectorised Algorithm 1 over any ``(..., M)`` decision block.

    Parameters
    ----------
    ed_star_decisions / hamming_decisions:
        ``(..., M)`` boolean decision blocks — ``(B, M)`` for a batch,
        ``(T, B, M)`` for a threshold sweep.
    p:
        Hamming-selection probabilities broadcasting against the
        leading axes (``(B,)`` per query, ``(T, 1)`` per threshold).
    states:
        Folded keyed-stream states (uint64) broadcasting against the
        leading axes, one per query.

    Returns
    -------
    The corrected decisions.  Every threshold of a sweep re-runs the
    correction on the *same* per-query streams (the key never includes
    the threshold); the draw a row receives still depends on its
    disagreement ordinal, so each threshold's slice is corrected
    independently and equals the batch correction at that threshold.
    """
    ed = np.asarray(ed_star_decisions, dtype=bool)
    hd = np.asarray(hamming_decisions, dtype=bool)
    if ed.shape != hd.shape:
        raise ThresholdError(
            f"decision shapes differ: {ed.shape} vs {hd.shape}"
        )
    p = np.asarray(p, dtype=float)
    if ((p < 0.0) | (p > 1.0)).any():
        raise ThresholdError("p entries must be probabilities in [0, 1]")
    states = np.asarray(states, dtype=np.uint64)
    selected = _keyed_selection(ed, hd, p[..., None], states[..., None])
    return np.where(selected, hd, ed)
