"""Fig. 7 — accuracy (F1) vs threshold for Conditions A and B.

Four panels regenerated as numeric series:

* Condition A (es = 1 %, ei = ed = 0.05 %), T in 1..8:
  F1(%) and F1 normalised by the Kraken-like exact matcher;
* Condition B (es = 0.1 %, ei = ed = 0.5 %), T in 2..16 (even):
  same two panels.

Curves: EDAM, ASMCap w/o HDAC & TASR, ASMCap w/ HDAC & TASR
(normalised panels add nothing new — they divide by the same
normaliser — but are emitted because the paper plots them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ExperimentError
from repro.eval.experiment import (
    asmcap_full_system,
    asmcap_plain_system,
    edam_system,
    kraken_system,
)
from repro.eval.reporting import format_series
from repro.eval.sweeps import SweepResult, run_sweep

#: Display names used across the Fig. 7/8 experiments.
SYSTEM_EDAM = "EDAM"
SYSTEM_PLAIN = "ASMCap w/o H&T"
SYSTEM_FULL = "ASMCap w/ H&T"
SYSTEM_KRAKEN = "Kraken-like"


@dataclass
class Fig7Result:
    """One condition's regenerated panels."""

    condition: str
    sweep: SweepResult
    kraken_f1: float

    @property
    def thresholds(self) -> list[int]:
        return self.sweep.thresholds

    def f1_percent(self, system: str) -> np.ndarray:
        return self.sweep.systems[system].mean * 100.0

    def normalized(self, system: str) -> np.ndarray:
        if self.kraken_f1 <= 0.0:
            raise ExperimentError("Kraken normalizer scored zero F1")
        return self.sweep.systems[system].mean / self.kraken_f1

    def render(self) -> str:
        curves_f1 = {
            SYSTEM_EDAM: self.f1_percent(SYSTEM_EDAM).tolist(),
            SYSTEM_PLAIN: self.f1_percent(SYSTEM_PLAIN).tolist(),
            SYSTEM_FULL: self.f1_percent(SYSTEM_FULL).tolist(),
        }
        curves_norm = {
            SYSTEM_EDAM: self.normalized(SYSTEM_EDAM).tolist(),
            SYSTEM_PLAIN: self.normalized(SYSTEM_PLAIN).tolist(),
            SYSTEM_FULL: self.normalized(SYSTEM_FULL).tolist(),
        }
        top = format_series(
            "Threshold", self.thresholds, curves_f1,
            title=f"Fig. 7 (Condition {self.condition}): F1 (%)",
        )
        bottom = format_series(
            "Threshold", self.thresholds, curves_norm,
            title=(f"Fig. 7 (Condition {self.condition}): F1 normalized "
                   f"by Kraken-like (F1 = {self.kraken_f1 * 100:.1f}%)"),
        )
        ratios = (
            f"mean F1 ratio {SYSTEM_FULL}/{SYSTEM_EDAM}: "
            f"{self.sweep.mean_ratio(SYSTEM_FULL, SYSTEM_EDAM):.2f}x; "
            f"max: {self.sweep.max_ratio(SYSTEM_FULL, SYSTEM_EDAM)[0]:.2f}x "
            f"at T={self.sweep.max_ratio(SYSTEM_FULL, SYSTEM_EDAM)[1]}\n"
        )
        return top + "\n" + bottom + "\n" + ratios


def thresholds_for(condition: str) -> list[int]:
    """The paper's threshold sweep for each condition."""
    label = condition.strip().upper()
    if label == "A":
        return list(constants.CONDITION_A_THRESHOLDS)
    if label == "B":
        return list(constants.CONDITION_B_THRESHOLDS)
    raise ExperimentError(f"unknown condition {condition!r}")


def run_fig7(condition: str = "A", n_runs: int = 3, n_reads: int = 96,
             n_segments: int = 128, seed: int = 0) -> Fig7Result:
    """Regenerate one condition of Fig. 7 (256-base reads).

    Every curve comes from the batched sweep engine (one search pass
    per read per curve, not per threshold), with the Monte-Carlo runs
    executed in run order on the calling thread.
    """
    thresholds = thresholds_for(condition)
    systems = {
        SYSTEM_EDAM: edam_system,
        SYSTEM_PLAIN: asmcap_plain_system,
        SYSTEM_FULL: asmcap_full_system,
        SYSTEM_KRAKEN: kraken_system,
    }
    sweep = run_sweep(condition, systems, thresholds, n_runs=n_runs,
                      n_reads=n_reads, n_segments=n_segments, seed=seed)
    kraken_f1 = sweep.systems[SYSTEM_KRAKEN].mean_f1()
    return Fig7Result(condition=condition.strip().upper(), sweep=sweep,
                      kraken_f1=kraken_f1)


def main(condition: str = "both", n_runs: int = 3, n_reads: int = 96,
         n_segments: int = 128, seed: int = 0) -> str:
    """Run and render Fig. 7 (one or both conditions)."""
    conditions = ["A", "B"] if condition == "both" else [condition]
    chunks = [
        run_fig7(c, n_runs=n_runs, n_reads=n_reads,
                 n_segments=n_segments, seed=seed).render()
        for c in conditions
    ]
    return "\n".join(chunks)


if __name__ == "__main__":
    print(main())
