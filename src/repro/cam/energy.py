"""Energy and variance models for capacitive CAM search (Eq. 1 and 2).

The paper gives closed forms for a charge-domain search over an
``M x N`` array whose capacitors are i.i.d. ``N(mu_C, sigma_C^2)``:

    E_S        ~= M * n_mis * (N - n_mis) / N * mu_C * VDD^2      (Eq. 1)
    Var(V_ML)  ~= n_mis * (N - n_mis) / N^3 * (sigma_C/mu_C)^2 * VDD^2  (Eq. 2)

Both peak at ``n_mis = N/2`` and vanish at 0 and N.  Because genome
rows are almost always far from the query (``n_mis`` close to N), the
typical search energy sits well below the peak — the property the paper
uses to argue ASMCap's low power (Section III-C).

Eq. (1) treats all M rows as sharing one mismatch count; the per-row
form :func:`search_energy_per_row` sums the actual counts, which the
array model uses.  A row's energy depends only on its count level, so
:func:`search_energy_per_query` gathers it from a per-level table
(:func:`level_energies`) built with the same float operations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import constants
from repro.errors import CamConfigError


def _check_range(counts: np.ndarray, n_cells: int) -> None:
    """Raise unless every count is in ``0..n_cells``; an unsigned block
    (every kernel block) needs only its ``max()``."""
    if n_cells <= 0:
        raise CamConfigError(f"n_cells must be positive, got {n_cells}")
    if counts.size and (counts.max() > n_cells
                        or (counts.dtype.kind != "u" and counts.min() < 0)):
        raise CamConfigError("mismatch counts must be within 0..n_cells")


def _check(n_mismatch: np.ndarray, n_cells: int) -> np.ndarray:
    counts = np.asarray(n_mismatch, dtype=float)
    _check_range(counts, n_cells)
    return counts


def search_energy_eq1(n_mismatch: "int | np.ndarray", n_rows: int,
                      n_cells: int,
                      mu_c: float = constants.MIM_CAPACITOR_FARADS,
                      vdd: float = constants.VDD_VOLTS) -> np.ndarray:
    """Search energy per Eq. (1), joules.

    ``n_mismatch`` is the (shared) per-row mismatch count; ``n_rows`` is
    M and ``n_cells`` is N.
    """
    counts = _check(n_mismatch, n_cells)
    if n_rows <= 0:
        raise CamConfigError(f"n_rows must be positive, got {n_rows}")
    return n_rows * counts * (n_cells - counts) / n_cells * mu_c * vdd**2


def search_energy_per_row(n_mismatch: np.ndarray, n_cells: int,
                          vdd: float = constants.VDD_VOLTS) -> np.ndarray:
    """Per-row charge-domain search energy, joules.

    One entry per row with that row's actual mismatch count; summing
    gives the whole-array search energy.
    """
    counts = _check(n_mismatch, n_cells)
    return (counts * (n_cells - counts) / n_cells
            * constants.MIM_CAPACITOR_FARADS * vdd**2)


@lru_cache(maxsize=32)
def level_energies(n_cells: int,
                   vdd: float = constants.VDD_VOLTS) -> np.ndarray:
    """Read-only ``(N + 1,)`` per-row energy of every level ``n = 0..N``.

    :func:`search_energy_per_row`'s expression at the MIM capacitance,
    evaluated over the float levels: the same operations in the same
    order, so entry ``n`` has the bits of that function at count ``n``.
    Built once per ``(N, vdd)``.
    """
    if n_cells <= 0:
        raise CamConfigError(f"n_cells must be positive, got {n_cells}")
    counts = np.arange(n_cells + 1, dtype=float)
    table = (counts * (n_cells - counts) / n_cells
             * constants.MIM_CAPACITOR_FARADS * vdd**2)
    table.setflags(write=False)
    return table


def search_energy_per_query(n_mismatch: np.ndarray, n_cells: int,
                            vdd: float = constants.VDD_VOLTS) -> np.ndarray:
    """``(B,)`` charge-domain cell energy per query, joules.

    :func:`search_energy_per_row` over a ``(B, M)`` count block, summed
    over rows (axis 1).  C-contiguous integer counts (every kernel
    block) gather from :func:`level_energies`, indexed by the counts
    in their own dtype, after one range check (a ``max()`` for an
    unsigned block, ``min()`` and ``max()`` for a signed one): the
    gathered block equals the formula's in values, shape, dtype and
    memory layout, so the row sums run the same additions and are
    bit-identical.  Other counts take the formula (the float
    activity of the synthetic typical-search event; a layout the
    gather would not reproduce).
    """
    counts = np.asarray(n_mismatch)
    if not (np.issubdtype(counts.dtype, np.integer)
            and counts.flags.c_contiguous):
        return search_energy_per_row(counts, n_cells,
                                     vdd=vdd).sum(axis=1)
    _check_range(counts, n_cells)
    return level_energies(n_cells, vdd).take(counts).sum(axis=1)


def vml_variance_eq2(n_mismatch: "int | np.ndarray", n_cells: int,
                     sigma_rel: float = constants.ASMCAP_CAPACITOR_SIGMA,
                     vdd: float = constants.VDD_VOLTS) -> np.ndarray:
    """Matchline-voltage variance per Eq. (2), volts^2."""
    counts = _check(n_mismatch, n_cells)
    return counts * (n_cells - counts) / n_cells**3 * sigma_rel**2 * vdd**2

