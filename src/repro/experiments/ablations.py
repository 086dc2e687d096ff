"""Programmatic ablation drivers (shared by benches and the CLI).

Three ablations DESIGN.md calls out, runnable via
``python -m repro.experiments ablations``:

* ``hdac`` — F1 over an (alpha, beta) grid around the paper's (200, 0.5);
* ``tasr`` — F1 per TASR variant (NR, direction, gamma = 0 == plain SR);
* ``defects`` — mapping recovery vs stuck-row density (robustness).
"""

from __future__ import annotations

import numpy as np

from repro.cam.array import CamArray
from repro.cam.defects import DefectiveArray, DefectMap
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.eval.confusion import confusion_series
from repro.eval.ground_truth import GroundTruth, label_dataset
from repro.eval.reporting import format_table
from repro.genome.datasets import Dataset, build_dataset


def _mean_f1(dataset: Dataset, truth: GroundTruth, config: MatcherConfig,
             thresholds: "tuple[int, ...]", seed: int = 0) -> float:
    array = CamArray(rows=dataset.n_segments, cols=dataset.read_length,
                     domain="charge", noisy=True, seed=seed)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, config, seed=seed + 1)
    reads = np.stack([record.read.codes for record in dataset.reads])
    decisions = matcher.match_sweep(reads, thresholds).decisions
    labels = np.stack([truth.labels(threshold) for threshold in thresholds])
    return float(np.mean([
        matrix.f1 for matrix in confusion_series(decisions, labels)
    ]))


def hdac_ablation(n_reads: int = 48, n_segments: int = 64,
                  seed: int = 0) -> str:
    """Sweep HDAC's (alpha, beta) on Condition A, small thresholds."""
    thresholds = (1, 2, 3)
    dataset = build_dataset("A", n_reads=n_reads, read_length=256,
                            n_segments=n_segments, seed=seed)
    truth = label_dataset(dataset, max(thresholds))
    rows = []
    for alpha in (50.0, 200.0, 800.0):
        for beta in (0.25, 0.5, 1.0):
            config = MatcherConfig(enable_tasr=False, hdac_alpha=alpha,
                                   hdac_beta=beta)
            rows.append((alpha, beta,
                         _mean_f1(dataset, truth, config, thresholds)))
    rows.append(("(no HDAC)", "-",
                 _mean_f1(dataset, truth, MatcherConfig.plain(),
                          thresholds)))
    return format_table(["alpha", "beta", "mean F1 (T=1..3)"], rows,
                        title="HDAC ablation (Condition A)")


def tasr_ablation(n_reads: int = 48, n_segments: int = 64,
                  seed: int = 0) -> str:
    """Compare TASR variants on Condition B."""
    thresholds = (2, 4, 6, 8, 10, 12, 14, 16)
    dataset = build_dataset("B", n_reads=n_reads, read_length=256,
                            n_segments=n_segments, seed=seed)
    truth = label_dataset(dataset, max(thresholds))
    variants = {
        "no TASR": MatcherConfig(enable_hdac=False, enable_tasr=False),
        "TASR NR=1": MatcherConfig(enable_hdac=False, tasr_nr=1),
        "TASR NR=2 (paper)": MatcherConfig(enable_hdac=False),
        "TASR left-only": MatcherConfig(enable_hdac=False,
                                        tasr_direction="left"),
        "SR (gamma=0)": MatcherConfig(enable_hdac=False, tasr_gamma=0.0),
    }
    rows = [
        (name, _mean_f1(dataset, truth, config, thresholds, seed=i))
        for i, (name, config) in enumerate(variants.items())
    ]
    return format_table(["variant", "mean F1 (T=2..16)"], rows,
                        title="TASR ablation (Condition B)")


def defect_ablation(n_segments: int = 64, seed: int = 0) -> str:
    """Mapping recovery vs stuck-mismatch row density."""
    rng = np.random.default_rng(seed)
    segments = rng.integers(0, 4, (n_segments, 256)).astype(np.uint8)
    rows = []
    for rate in (0.0, 0.02, 0.05, 0.1, 0.2):
        array = CamArray(rows=n_segments, cols=256, noisy=False)
        array.store(segments)
        defects = DefectMap.sample(n_segments, 0.0, rate,
                                   np.random.default_rng(seed + 1))
        wrapped = DefectiveArray(array, defects)
        hits = int(wrapped.search_batch(segments, 0).matches.diagonal().sum())
        rows.append((f"{rate * 100:.0f} %", defects.n_defective,
                     hits / n_segments * 100))
    return format_table(
        ["stuck-row rate", "defective rows", "self-recovery %"], rows,
        title="Defect robustness (exact self-match per row)",
    )


def main(which: str = "all", seed: int = 0) -> str:
    """Run the requested ablation(s)."""
    parts = []
    if which in ("hdac", "all"):
        parts.append(hdac_ablation(seed=seed))
    if which in ("tasr", "all"):
        parts.append(tasr_ablation(seed=seed))
    if which in ("defects", "all"):
        parts.append(defect_ablation(seed=seed))
    return "\n".join(parts)
