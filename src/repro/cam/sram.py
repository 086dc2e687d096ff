"""SRAM storage model for CAM rows.

Each ASMCap cell stores one 2-bit base in two 6T SRAM cells
(Fig. 4(c)).  This module models the storage plane of an array: a
matrix of base codes with write/read operations, transistor-count
bookkeeping for the area model, and optional bit-flip fault injection
used by the failure-injection tests (a stuck or flipped storage bit
turns into a systematically wrong stored base, which the matcher must
tolerate gracefully, not crash on).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CamConfigError
from repro.genome import alphabet

#: Transistors per 6T SRAM bit cell.
TRANSISTORS_PER_SRAM_BIT = 6

#: SRAM bits per stored base (2-bit encoding).
BITS_PER_BASE = alphabet.BITS_PER_BASE


class SramPlane:
    """The storage plane of one CAM array: ``rows x cols`` base codes.

    Parameters
    ----------
    rows, cols:
        Array geometry (M reference segments of N bases each).
    """

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise CamConfigError(
                f"SRAM plane needs positive dimensions, got {rows}x{cols}"
            )
        self._rows = rows
        self._cols = cols
        self._data = np.zeros((rows, cols), dtype=np.uint8)
        self._written = np.zeros(rows, dtype=bool)

    @classmethod
    def from_stored(cls, data: np.ndarray) -> "SramPlane":
        """A fully-written plane *adopting* an existing code matrix.

        The zero-copy open path of :mod:`repro.refstore`: the matrix
        (typically a read-only view over a mapped store file) backs
        the plane directly — no per-row copy — and every row is marked
        written.  Such a plane is immutable in practice: the adopted
        matrix is left read-only, so fault injection on it raises.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
            raise CamConfigError(
                f"a stored plane needs a non-empty (rows, cols) code "
                f"matrix, got shape {data.shape}"
            )
        if data.size and int(data.max()) >= alphabet.ALPHABET_SIZE:
            raise CamConfigError("segment codes must be 2-bit (0..3)")
        plane = cls.__new__(cls)
        plane._rows = int(data.shape[0])
        plane._cols = int(data.shape[1])
        plane._data = data
        plane._written = np.ones(plane._rows, dtype=bool)
        return plane

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def data(self) -> np.ndarray:
        """The stored code matrix (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def written_mask(self) -> np.ndarray:
        """Boolean mask of rows that hold valid segments."""
        view = self._written.view()
        view.setflags(write=False)
        return view

    @property
    def n_written(self) -> int:
        return int(self._written.sum())

    def write_row(self, row: int, codes: np.ndarray) -> None:
        """Write one reference segment into a row."""
        if not 0 <= row < self._rows:
            raise CamConfigError(f"row {row} out of range 0..{self._rows - 1}")
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.shape != (self._cols,):
            raise CamConfigError(
                f"segment shape {codes.shape} does not fit row width "
                f"{self._cols}"
            )
        if codes.size and int(codes.max()) >= alphabet.ALPHABET_SIZE:
            raise CamConfigError("segment codes must be 2-bit (0..3)")
        self._data[row] = codes
        self._written[row] = True

    def write_all(self, segments: np.ndarray) -> None:
        """Write up to ``rows`` segments starting at row 0."""
        segments = np.asarray(segments, dtype=np.uint8)
        if segments.ndim != 2 or segments.shape[1] != self._cols:
            raise CamConfigError(
                f"segments shape {segments.shape} does not fit plane "
                f"{self._rows}x{self._cols}"
            )
        if segments.shape[0] > self._rows:
            raise CamConfigError(
                f"{segments.shape[0]} segments exceed {self._rows} rows"
            )
        for row, segment in enumerate(segments):
            self.write_row(row, segment)

    def read_row(self, row: int) -> np.ndarray:
        """Read a stored row (copy)."""
        if not self._written[row]:
            raise CamConfigError(f"row {row} has not been written")
        return self._data[row].copy()

    def clear(self) -> None:
        """Invalidate all rows."""
        self._data.fill(0)
        self._written.fill(False)

    # -- fault injection -------------------------------------------------

    def inject_bit_flips(self, rate: float, rng: np.random.Generator) -> int:
        """Flip each stored SRAM *bit* independently with probability *rate*.

        Returns the number of flipped bits.  Used by robustness tests to
        check that storage corruption degrades accuracy smoothly instead
        of breaking invariants.
        """
        if not 0.0 <= rate <= 1.0:
            raise CamConfigError(f"bit-flip rate must be in [0, 1], got {rate}")
        flips_low = rng.random(self._data.shape) < rate
        flips_high = rng.random(self._data.shape) < rate
        self._data ^= flips_low.astype(np.uint8)
        self._data ^= (flips_high.astype(np.uint8) << 1)
        return int(flips_low.sum() + flips_high.sum())

    # -- bookkeeping -------------------------------------------------------

    def transistor_count(self) -> int:
        """Total transistors in the storage plane (2 x 6T per base)."""
        return self._rows * self._cols * BITS_PER_BASE * TRANSISTORS_PER_SRAM_BIT

    def capacity_bits(self) -> int:
        """Storage capacity in bits."""
        return self._rows * self._cols * BITS_PER_BASE
