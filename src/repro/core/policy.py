"""Design-rule policies for HDAC and TASR (Section IV).

Two small closed-form policies steer the correction strategies:

* **HDAC selection probability** ``p = f(es, eid, T)``:

      p = es / (es + eid) * exp(-(alpha * eid + beta * T))

  - ``es/(es+eid)`` grows with the substitution share of edits (HDAC
    only helps substitution-dominant errors);
  - ``exp(-alpha*eid)`` suppresses HDAC rapidly as indels appear
    (Hamming distance explodes under indels, so trusting it would
    create false negatives);
  - ``exp(-beta*T)`` suppresses HDAC at large thresholds, where many
    indel-inflated Hamming distances should still be matches.

  The paper notes this f() is "only an example" of a suitable shape;
  alpha = 200 and beta = 0.5 are its chosen constants.

* **TASR trigger bound** ``Tl = ceil(gamma / eid * m)``: rotation is
  allowed only when ``T >= Tl``.  High indel rates push ``Tl`` down
  (rotation needed for accuracy); low indel rates push it up (skip the
  rotations, save time and energy, and avoid the false positives SR
  causes at small T).  gamma = 2e-4 in the paper.

Both functions are pure and cheap, matching the paper's observation
that ``p`` can be pre-processed off-line.
"""

from __future__ import annotations

import math

from repro import constants
from repro.errors import ThresholdError
from repro.genome.edits import ErrorModel


def hdac_probability(substitution_rate: float, indel_rate: float,
                     threshold: int,
                     alpha: float = constants.HDAC_ALPHA,
                     beta: float = constants.HDAC_BETA) -> float:
    """The HDAC Hamming-selection probability ``p``.

    Returns 0 when no errors are modelled (``es + eid == 0``): with no
    expected edits there is nothing for HDAC to correct.
    """
    if substitution_rate < 0.0 or indel_rate < 0.0:
        raise ThresholdError("error rates must be non-negative")
    if threshold < 0:
        raise ThresholdError(f"threshold must be non-negative, got {threshold}")
    total = substitution_rate + indel_rate
    if total == 0.0:
        return 0.0
    share = substitution_rate / total
    return share * math.exp(-(alpha * indel_rate + beta * threshold))


def hdac_probability_for_model(model: ErrorModel, threshold: int,
                               alpha: float = constants.HDAC_ALPHA,
                               beta: float = constants.HDAC_BETA) -> float:
    """``p`` computed from an :class:`ErrorModel`'s rates."""
    return hdac_probability(model.substitution, model.indel_rate,
                            threshold, alpha=alpha, beta=beta)


def hdac_enabled(p: float) -> bool:
    """Whether the HDAC extra search cycle is worth issuing (elementwise
    for a numpy array of ``p``).

    The paper disables HDAC when ``p`` falls below
    ``constants.HDAC_DISABLE_THRESHOLD`` (~1 %) to save the extra
    Hamming search cycle (Section IV-A overhead analysis).
    """
    return p >= constants.HDAC_DISABLE_THRESHOLD


def tasr_lower_bound(indel_rate: float, read_length: int,
                     gamma: float = constants.TASR_GAMMA) -> int:
    """The TASR trigger bound ``Tl = ceil(gamma / eid * m)``.

    With no indels modelled the bound is effectively infinite (rotation
    can only create false positives then); we return ``read_length + 1``
    which no threshold can reach.
    """
    if read_length <= 0:
        raise ThresholdError(
            f"read_length must be positive, got {read_length}"
        )
    if indel_rate < 0.0:
        raise ThresholdError("indel_rate must be non-negative")
    if indel_rate == 0.0:
        return read_length + 1
    bound = math.ceil(gamma / indel_rate * read_length)
    return max(1, min(bound, read_length + 1))


def tasr_lower_bound_for_model(model: ErrorModel, read_length: int,
                               gamma: float = constants.TASR_GAMMA) -> int:
    """``Tl`` computed from an :class:`ErrorModel`'s indel rate."""
    return tasr_lower_bound(model.indel_rate, read_length, gamma=gamma)


def tasr_enabled(threshold: int, lower_bound: int) -> bool:
    """Whether rotations fire at this threshold (``T >= Tl``)."""
    return threshold >= lower_bound
