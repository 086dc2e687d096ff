"""Analytic misjudgment model: closed-form flip probabilities.

The Monte-Carlo experiments *sample* sensing noise; this module
*computes* it.  For a row whose digital mismatch count is ``n`` and a
sense amplifier deciding ``n <= T`` at reference level ``T + 1/2``
(midpoint rule), the probability that Gaussian matchline noise flips
the decision is a Q-function of the margin:

    P(flip) = Q( |n - (T + 1/2)| * spacing / sigma(n) )

with ``spacing = VDD/N`` and ``sigma(n)`` from the domain's variation
model.  The tests compare these noise-model-exact predictions against
the flip rates the sampled arrays measure.

This also quantifies the paper's Section V-D argument: at the paper's
variations, ASMCap's flip probability at any threshold <= 16 is
astronomically small while EDAM's boundary rows flip tens of percent
of the time.
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation
from repro.errors import ThresholdError

# scipy is optional: only the Gaussian survival function is used, and
# math.erfc reproduces it to double precision when scipy is absent.
try:
    from scipy.stats import norm as _norm
except ImportError:  # pragma: no cover - exercised on scipy-free CI
    _norm = None

_erfc = np.vectorize(math.erfc, otypes=[float])


def _gaussian_sf(z: np.ndarray) -> np.ndarray:
    if _norm is not None:
        return _norm.sf(z)
    return _erfc(np.asarray(z, dtype=float) / math.sqrt(2.0)) * 0.5


def _variation_for(domain: str):
    if domain == "charge":
        return ChargeDomainVariation()
    if domain == "current":
        return CurrentDomainVariation()
    raise ThresholdError(f"domain must be 'charge' or 'current', got {domain!r}")


def flip_probability(mismatch_count: "int | np.ndarray", threshold: int,
                     n_cells: int, domain: str = "charge",
                     strict_paper_rule: bool = False) -> np.ndarray:
    """Probability that sensing noise flips a row's decision.

    Parameters
    ----------
    mismatch_count:
        The row's digital mismatch count(s).
    threshold:
        Decision threshold ``T``.
    n_cells:
        Row width ``N``.
    domain:
        ``"charge"`` (ASMCap) or ``"current"`` (EDAM).
    strict_paper_rule:
        Place ``V_ref`` at ``T`` exactly instead of ``T + 1/2`` — rows
        with ``n == T`` then sit on the boundary and flip ~50 %.
    """
    counts = np.asarray(mismatch_count, dtype=float)
    if not 0 <= threshold <= n_cells:
        raise ThresholdError(
            f"threshold {threshold} out of range 0..{n_cells}"
        )
    variation = _variation_for(domain)
    sigma = np.asarray(variation.sigma_vml(counts.astype(int), n_cells),
                       dtype=float)
    spacing = constants.VDD_VOLTS / n_cells
    reference_level = threshold if strict_paper_rule else threshold + 0.5
    margin_volts = np.abs(counts - reference_level) * spacing
    with np.errstate(divide="ignore"):
        z = np.where(sigma > 0, margin_volts / np.where(sigma > 0, sigma, 1),
                     np.inf)
    return _gaussian_sf(z)

