"""Bench: defect-robustness sweep (graceful degradation).

Not a paper artifact; quantifies how mapping recovery falls as stuck
rows accumulate — the reliability counterpart of the Section V-E
fast-testing use case.
"""

from __future__ import annotations

from repro.experiments.ablations import defect_ablation


def bench_defect_sweep(benchmark):
    text = benchmark.pedantic(defect_ablation,
                              kwargs={"seed": 1},
                              rounds=1, iterations=1)
    assert "100" in text          # zero-defect row recovers everything
    assert "Defect robustness" in text
    print()
    print(text)
