"""Tests for the Eq. (1)/(2) energy and variance models."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.energy import (
    level_energies,
    search_energy_eq1,
    search_energy_per_query,
    search_energy_per_row,
    vml_variance_eq2,
)
from repro.cost.events import EdStarPass
from repro.cost.views import (
    component_energies,
    search_pass_energy_per_query,
    typical_search_event,
)
from repro.errors import CamConfigError


class TestEq1:
    def test_zero_at_extremes(self):
        assert search_energy_eq1(0, 256, 256) == pytest.approx(0.0)
        assert search_energy_eq1(256, 256, 256) == pytest.approx(0.0)

    def test_peak_at_half(self):
        counts = np.arange(257)
        energy = search_energy_eq1(counts, 256, 256)
        assert int(np.argmax(energy)) == 128

    def test_known_value(self):
        # E = M * n(N-n)/N * C * V^2
        expected = (256 * 128 * 128 / 256
                    * constants.MIM_CAPACITOR_FARADS
                    * constants.VDD_VOLTS**2)
        assert search_energy_eq1(128, 256, 256) == pytest.approx(expected)

    def test_scales_linearly_with_rows(self):
        single = search_energy_eq1(64, 1, 256)
        many = search_energy_eq1(64, 100, 256)
        assert many == pytest.approx(100 * single)

    def test_per_row_sum_matches_eq1_for_uniform_counts(self):
        counts = np.full(256, 100)
        per_row = search_energy_per_row(counts, 256).sum()
        aggregate = search_energy_eq1(100, 256, 256)
        assert per_row == pytest.approx(float(aggregate))

    def test_invalid_counts(self):
        with pytest.raises(CamConfigError):
            search_energy_eq1(300, 256, 256)
        with pytest.raises(CamConfigError):
            search_energy_eq1(10, 0, 256)


class TestEq2:
    def test_symmetry(self):
        """Variance is symmetric around N/2 (n and N-n swap roles)."""
        variance_low = vml_variance_eq2(30, 256)
        variance_high = vml_variance_eq2(226, 256)
        assert variance_low == pytest.approx(float(variance_high))

    def test_known_worst_case(self):
        # Var = n(N-n)/N^3 * sigma^2 * V^2 at n = N/2.
        expected = (128 * 128 / 256**3
                    * constants.ASMCAP_CAPACITOR_SIGMA**2
                    * constants.VDD_VOLTS**2)
        assert vml_variance_eq2(128, 256) == pytest.approx(expected)

    def test_vanishes_at_extremes(self):
        assert vml_variance_eq2(0, 256) == pytest.approx(0.0)
        assert vml_variance_eq2(256, 256) == pytest.approx(0.0)


def _counts_block(n_cells: int, seed: int) -> np.ndarray:
    """A ``(B, M)`` int count block holding both extremes, 0 and N."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, n_cells + 1, size=(9, 300))
    counts[0, :3] = (0, n_cells, n_cells // 2)
    return counts


def _pass(counts: np.ndarray, n_cells: int, vdd: float) -> EdStarPass:
    return EdStarPass(
        domain="charge", mode="ed_star", n_cells=n_cells, vdd=vdd,
        search_time_ns=constants.ASMCAP_SEARCH_TIME_NS,
        mismatch_counts=counts,
        thresholds=np.zeros(counts.shape[0], dtype=int),
    )


class TestLevelTable:
    """The per-level energy table is the per-row formula, bit for bit:
    ``==`` throughout, never ``approx``."""

    @pytest.mark.parametrize("vdd", [constants.VDD_VOLTS, 0.9, 1.05, 1.3])
    @pytest.mark.parametrize("n_cells", [1, 7, 64, 256])
    def test_gathered_row_sums_equal_the_formula(self, n_cells, vdd):
        counts = _counts_block(n_cells, seed=n_cells)
        formula = search_energy_per_row(counts, n_cells, vdd=vdd)
        table = level_energies(n_cells, vdd=vdd)
        assert np.array_equal(table[counts], formula)
        assert np.array_equal(table[counts].sum(axis=1),
                              formula.sum(axis=1))
        assert np.array_equal(search_energy_per_query(counts, n_cells,
                                                      vdd=vdd),
                              formula.sum(axis=1))

    def test_table_is_cached_and_read_only(self):
        table = level_energies(64, vdd=0.9)
        assert level_energies(64, vdd=0.9) is table
        assert table.shape == (65,)
        assert not table.flags.writeable

    def test_non_contiguous_counts_take_the_formula(self):
        counts = np.asfortranarray(_counts_block(64, seed=3))
        assert np.array_equal(
            search_energy_per_query(counts, 64),
            search_energy_per_row(counts, 64).sum(axis=1))

    @pytest.mark.parametrize("bad", [-1, 65])
    def test_out_of_range_count_raises_through_the_view(self, bad):
        counts = _counts_block(64, seed=4)
        counts[2, 5] = bad
        with pytest.raises(CamConfigError, match="within 0..n_cells"):
            search_pass_energy_per_query(_pass(counts, 64, 1.2))
        with pytest.raises(CamConfigError, match="within 0..n_cells"):
            search_energy_per_query(counts, 64)

    @pytest.mark.parametrize("n_cells", [1, 64, 255, 256, 512])
    def test_narrow_counts_gather_the_same_bits(self, n_cells):
        """A kernel block in its narrow unsigned dtype gathers the same
        per-query energies, bit for bit, as the same values in intp."""
        wide = _counts_block(n_cells, seed=n_cells)
        narrow = wide.astype(np.min_scalar_type(n_cells))
        assert narrow.dtype.kind == "u"
        assert [value.hex() for value in
                search_energy_per_query(narrow, n_cells).tolist()] == [
            value.hex() for value in
            search_energy_per_query(wide.astype(np.intp), n_cells).tolist()]

    @pytest.mark.parametrize("counts", [
        np.array([[0, 256, 257]], dtype=np.uint16),
        np.array([[0, -1, 256]], dtype=np.int64),
    ], ids=["uint16-above-N", "int64-negative"])
    def test_range_check_covers_both_signednesses(self, counts):
        """The unsigned check reads only ``max()``; a signed block
        still checks ``min()`` too."""
        with pytest.raises(CamConfigError, match="within 0..n_cells"):
            search_energy_per_query(counts, 256)

    def test_typical_search_event_energies_unchanged(self):
        """The float-count synthetic event keeps the formula: pinned
        to the values before the level table existed."""
        parts = component_energies(typical_search_event())
        assert {name: value.hex() for name, value in parts.items()} == {
            "cells": "0x1.946d29ab52bb4p-35",
            "shift_registers": "0x1.982382e829366p-37",
            "sense_amps": "0x1.036847569cd7ap-38",
        }
        small = component_energies(typical_search_event(rows=64, cols=128))
        assert small["cells"].hex() == "0x1.946d29ab52bb6p-38"
        per_query = search_pass_energy_per_query(typical_search_event())
        assert [value.hex() for value in per_query.tolist()] == [
            "0x1.b4da329626563p-35"]
