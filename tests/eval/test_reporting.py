"""Tests for report formatting."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.eval.reporting import format_ratio, format_series, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["a", "bbb"], [("x", 1.5), ("yyyy", 2)])
        lines = text.splitlines()
        assert "a" in lines[0] and "bbb" in lines[0]
        assert "-+-" in lines[1]
        assert "x" in lines[2]
        assert "yyyy" in lines[3]

    def test_title(self):
        text = format_table(["a"], [("x",)], title="My Table")
        assert text.startswith("My Table\n")

    def test_float_formatting(self):
        text = format_table(["v"], [(0.123456789,)])
        assert "0.1235" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ExperimentError):
            format_table(["a", "b"], [("only-one",)])


class TestFormatSeries:
    def test_one_row_per_x(self):
        text = format_series("T", [1, 2, 3], {"f1": [0.1, 0.2, 0.3]})
        assert len(text.splitlines()) == 2 + 3

    def test_curve_length_mismatch(self):
        with pytest.raises(ExperimentError):
            format_series("T", [1, 2], {"f1": [0.1]})


class TestFormatRatio:
    def test_small(self):
        assert format_ratio(2.84) == "2.8x"

    def test_medium(self):
        assert format_ratio(174.4) == "174x"

    def test_large_scientific(self):
        assert format_ratio(97_000) == "9.7e+04x"
