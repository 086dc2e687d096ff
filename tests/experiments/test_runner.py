"""Tests for the experiments CLI (small configurations)."""

from __future__ import annotations

import pytest

from repro.experiments import ablations
from repro.experiments.runner import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Charge domain" in out
        assert "Current domain" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "CM-CPU" in out and "EDAM" in out
        assert "paper" in out

    def test_states(self, capsys):
        assert main(["states"]) == 0
        out = capsys.readouterr().out
        assert "44" in out and "566" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown"]) == 0
        assert "7.67" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        code = main(["fig7", "--condition", "A", "--runs", "1",
                     "--reads", "12", "--segments", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 7 (Condition A)" in out
        assert "normalized" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestAblationDrivers:
    def test_defect_ablation_output(self):
        text = ablations.defect_ablation(seed=1)
        assert "Defect robustness" in text
        assert "100" in text  # 0 % defects -> 100 % self-recovery

    def test_hdac_ablation_small(self):
        text = ablations.hdac_ablation(seed=2)
        assert "HDAC ablation" in text
        assert "(no HDAC)" in text

    def test_tasr_ablation_small(self):
        text = ablations.tasr_ablation(seed=3)
        assert "TASR ablation" in text
        assert "SR (gamma=0)" in text
