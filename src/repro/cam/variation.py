"""Device-variation models for the two ML-CAM flavours (Section V-D).

The accuracy advantage of the capacitive (charge-domain) matchline over
EDAM's current-domain matchline comes entirely from variation, so this
module is the heart of the accuracy comparison:

* **Charge domain** (ASMCap): with i.i.d. capacitors
  ``C ~ N(mu_C, sigma_C^2)`` the matchline voltage is a capacitive
  divider and its variance follows the paper's Eq. (2):

      Var(V_ML) ~= n_mis (N - n_mis) / N^3 * (sigma_C/mu_C)^2 * VDD^2

  The worst case sits at ``n_mis = N/2`` where
  ``sigma_max = (sigma_C/mu_C) * VDD / (2 sqrt(N))``.

* **Current domain** (EDAM): each mismatched cell sinks a discharge
  current ``I ~ N(mu_I, sigma_I^2)`` and the droop is sampled after a
  timing-controlled interval.  The paper characterises this chain by
  one number: it distinguishes at most ``S = 44`` states under the
  3-sigma rule.  We model the sampled value with the **noise floor that
  statement implies**: a sensing chain that resolves exactly S levels
  across the full scale has ``sigma = VDD / (2 * separation * S)``
  (~4.5 mV for S = 44, separation = 3), and an N-cell row maps its
  ``N + 1`` mismatch counts onto that same full scale, so *every*
  count decision sees this floor.  For ``N > S`` (the paper's 256-cell
  rows) adjacent counts are then closer than the noise floor and
  threshold decisions misjudge — exactly the read-length limitation the
  paper attributes to EDAM, and the source of its Monte-Carlo F1 gap.
  ``count_dependent=True`` switches to the optimistic i.i.d.-current
  scaling ``sqrt(n_mis) * sigma_I * VDD / N`` (whose worst case at
  ``n_mis = N`` reproduces the same 44-state bound) for the
  noise-model ablation bench; an optional timing-jitter term can be
  added to either form.

**Distinguishable states.** Adjacent V_ML levels are ``VDD / N`` apart.
Under the paper's 3-sigma rule each level must clear the decision
boundary by 3 sigma, i.e. adjacent means must be ``>= 6 sigma_max``
apart.  Solving for the largest N gives 566 states for ASMCap
(sigma_C/mu_C = 1.4 %) and 44 for EDAM (sigma_I/mu_I = 2.5 %) — the
numbers quoted in Section V-D and verified by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import CamConfigError


def _validate(n_mismatch: np.ndarray, n_cells: int) -> np.ndarray:
    n_mismatch = np.asarray(n_mismatch)
    if n_cells <= 0:
        raise CamConfigError(f"n_cells must be positive, got {n_cells}")
    if (n_mismatch < 0).any() or (n_mismatch > n_cells).any():
        raise CamConfigError("n_mismatch must be within 0..n_cells")
    return n_mismatch


@dataclass(frozen=True)
class ChargeDomainVariation:
    """Capacitor-mismatch variation model (ASMCap)."""

    sigma_rel: float = constants.ASMCAP_CAPACITOR_SIGMA
    vdd: float = constants.VDD_VOLTS

    def sigma_vml(self, n_mismatch: "int | np.ndarray", n_cells: int) -> np.ndarray:
        """Standard deviation of V_ML per Eq. (2)."""
        n_mis = _validate(n_mismatch, n_cells)
        variance = (n_mis * (n_cells - n_mis) / n_cells**3
                    * self.sigma_rel**2 * self.vdd**2)
        return np.sqrt(variance)

    def worst_case_sigma(self, n_cells: int) -> float:
        """sigma at the worst-case mismatch count (n_mis = N/2)."""
        return float(self.sigma_rel * self.vdd / (2.0 * math.sqrt(n_cells)))

    def distinguishable_states(self,
                               separation: float = constants.SIGMA_SEPARATION
                               ) -> int:
        """Largest N with adjacent levels >= 2*separation*sigma apart.

        Level spacing is VDD/N and worst-case sigma is
        sigma_rel*VDD/(2 sqrt(N)); solving
        ``VDD/N >= 2*separation*sigma`` gives
        ``N <= (1 / (separation * sigma_rel))^2``.
        """
        if self.sigma_rel == 0.0:
            raise CamConfigError("zero variation supports unbounded states")
        return int(math.floor((1.0 / (separation * self.sigma_rel)) ** 2))


@dataclass(frozen=True)
class CurrentDomainVariation:
    """Discharge-current variation model (EDAM).

    Attributes
    ----------
    sigma_rel:
        Relative per-cell current variation sigma_I/mu_I.
    timing_jitter_rel:
        Relative sampling-time jitter; it multiplies the whole droop
        (``n_mis/N * VDD``), modelling the "time error" of Fig. 3(a).
    """

    sigma_rel: float = constants.EDAM_CURRENT_SIGMA
    timing_jitter_rel: float = 0.0
    vdd: float = constants.VDD_VOLTS
    count_dependent: bool = False
    separation: float = constants.SIGMA_SEPARATION

    def sensing_noise_floor(self) -> float:
        """The full-scale sensing sigma implied by the states limit.

        A chain distinguishing S levels under the ``separation``-sigma
        rule has adjacent levels ``2 * separation * sigma`` apart, so
        ``sigma = VDD / (2 * separation * S)``.
        """
        states = self.distinguishable_states(self.separation)
        return self.vdd / (2.0 * self.separation * states)

    def sigma_vml(self, n_mismatch: "int | np.ndarray", n_cells: int) -> np.ndarray:
        """Standard deviation of the sampled V_ML droop.

        Default: the sensing-chain noise floor applied uniformly (see
        the module docstring).  With ``count_dependent=True`` the
        optimistic ``sqrt(n_mis)`` i.i.d. scaling is used instead.
        """
        n_mis = _validate(n_mismatch, n_cells)
        if self.count_dependent:
            current_term = (np.sqrt(n_mis.astype(float))
                            * self.sigma_rel * self.vdd / n_cells)
        else:
            current_term = np.full(np.shape(n_mis),
                                   self.sensing_noise_floor())
        timing_term = (n_mis.astype(float) / n_cells
                       * self.timing_jitter_rel * self.vdd)
        return np.sqrt(current_term**2 + timing_term**2)

    def worst_case_sigma(self, n_cells: int) -> float:
        """Largest per-row sigma this model produces."""
        if self.count_dependent:
            current = self.sigma_rel * self.vdd / math.sqrt(n_cells)
        else:
            current = self.sensing_noise_floor()
        timing = self.timing_jitter_rel * self.vdd
        return float(math.hypot(current, timing))

    def distinguishable_states(self,
                               separation: float = constants.SIGMA_SEPARATION
                               ) -> int:
        """Largest N with adjacent levels >= 2*separation*sigma apart.

        With sigma_max = sigma_rel*VDD/sqrt(N) (jitter excluded, as the
        paper's estimate is) the bound is
        ``N <= (1 / (2 * separation * sigma_rel))^2``.
        """
        if self.sigma_rel == 0.0:
            raise CamConfigError("zero variation supports unbounded states")
        return int(math.floor((1.0 / (2.0 * separation * self.sigma_rel)) ** 2))
