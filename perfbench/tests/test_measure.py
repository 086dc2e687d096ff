"""Percentile refusal and configuration flags."""

import pytest

from perfbench.measure import config_flags, config_record, percentile


def test_p90_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 50)
    assert percentile([1.0] * 20, 50) == 1.0


def test_config_flags_report_a_flip_between_setups():
    steady = config_record("w", {"plan_backend": ["numpy-gemm"], "seed": 1})
    assert config_flags(steady) == []
    flipped = config_record("w", {"plan_backend": ["bitpacked", "numpy-gemm"],
                                  "seed": 3})
    assert config_flags(flipped) == [
        "plan_backend differs between setups: ['bitpacked', 'numpy-gemm']"]
