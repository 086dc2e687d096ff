"""The paper's system parameters and the shared simulator budget."""

from __future__ import annotations

import importlib

import pytest

from repro import constants
from repro.genome.alphabet import BITS_PER_BASE


def capacity_bases() -> int:
    return constants.ARRAY_COUNT * constants.ARRAY_ROWS * constants.ARRAY_COLS


class TestPaperSystem:
    def test_geometry_matches_paper(self):
        assert constants.ARRAY_ROWS == 256
        assert constants.ARRAY_COLS == 256
        assert constants.ARRAY_COUNT == 512
        assert constants.VDD_VOLTS == 1.2
        assert constants.TECHNOLOGY_NM == 65

    def test_capacity_is_64_mb(self):
        """Section V-E quotes 64 Mb for the 512-array system."""
        assert capacity_bases() * BITS_PER_BASE == 64 * 2**20

    def test_read_fills_one_row(self):
        """A 256-bp read is one row: 512 bits broadcast per read."""
        assert constants.READ_LENGTH == constants.ARRAY_COLS
        assert constants.READ_LENGTH * BITS_PER_BASE == 512

    def test_fits_small_virus(self):
        """SARS-CoV-2 (~30 kb) fits entirely (the paper's use case)."""
        assert capacity_bases() >= 30_000
        assert capacity_bases() < 3_000_000_000  # human genome


@pytest.mark.parametrize("module", [
    "repro.arch.autotune",
    "repro.kernels.base",
    "repro.kernels.gemm",
    "repro.distance.ed_star",
])
def test_chunk_budget_defined_once(module):
    """Every chunked kernel and the autotuner bound their working set
    by the one budget in :mod:`repro.constants`."""
    assert constants.CHUNK_ELEMS == 1 << 23
    assert importlib.import_module(module).CHUNK_ELEMS is constants.CHUNK_ELEMS
