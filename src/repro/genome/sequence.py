"""Immutable DNA sequence type backed by a 2-bit code array.

:class:`DnaSequence` is the currency of the whole library: the genome
generator produces one, edit injection transforms one into another, CAM
arrays store rows of them, and the distance kernels consume their code
arrays directly (zero-copy) for speed.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from repro.errors import SequenceError
from repro.genome import alphabet


class DnaSequence:
    """An immutable DNA sequence.

    Instances wrap a read-only ``uint8`` numpy array of 2-bit base codes.
    Construction validates the alphabet once; afterwards every operation
    can trust the invariant ``codes ∈ {0,1,2,3}``.

    Parameters
    ----------
    data:
        Either a base string over ``ACGT`` or a numpy array of codes.

    Examples
    --------
    >>> s = DnaSequence("GATTACA")
    >>> len(s), str(s[1:4])
    (7, 'ATT')
    >>> round(s.gc_content(), 3)
    0.286
    """

    __slots__ = ("_codes",)

    def __init__(self, data: Union[str, np.ndarray, "DnaSequence"]):
        if isinstance(data, DnaSequence):
            codes = data._codes
        elif isinstance(data, str):
            codes = alphabet.encode(data)
        else:
            codes = np.asarray(data, dtype=np.uint8)
            if codes.ndim != 1:
                raise SequenceError(
                    f"sequence codes must be 1-D, got shape {codes.shape}"
                )
            if codes.size and int(codes.max()) >= alphabet.ALPHABET_SIZE:
                raise SequenceError("sequence codes must be in 0..3")
            codes = codes.copy()
        codes.setflags(write=False)
        self._codes = codes

    # -- core protocol ------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The read-only ``uint8`` code array (no copy)."""
        return self._codes

    def __len__(self) -> int:
        return int(self._codes.size)

    def __str__(self) -> str:
        return alphabet.decode(self._codes)

    def __repr__(self) -> str:
        text = str(self)
        if len(text) > 40:
            text = text[:37] + "..."
        return f"DnaSequence({text!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DnaSequence):
            return np.array_equal(self._codes, other._codes)
        if isinstance(other, str):
            return str(self) == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._codes.tobytes())

    def __iter__(self) -> Iterator[str]:
        for code in self._codes:
            yield alphabet.CODE_TO_BASE[int(code)]

    def __getitem__(self, item: Union[int, slice]) -> "DnaSequence":
        if isinstance(item, int):
            return DnaSequence(self._codes[item : item + 1 or None])
        if isinstance(item, slice):
            return DnaSequence(self._codes[item])
        raise SequenceError(f"indices must be int or slice, not {type(item).__name__}")

    def __add__(self, other: "DnaSequence") -> "DnaSequence":
        if not isinstance(other, DnaSequence):
            return NotImplemented
        return DnaSequence(np.concatenate([self._codes, other._codes]))

    # -- biology helpers ------------------------------------------------

    def gc_content(self) -> float:
        """Fraction of bases that are C or G (0.0 for empty sequences)."""
        if not len(self):
            return 0.0
        is_gc = (self._codes == 1) | (self._codes == 2)
        return float(is_gc.mean())

    # -- structural helpers ---------------------------------------------

    def window(self, start: int, length: int) -> "DnaSequence":
        """Extract a window, raising if it falls outside the sequence."""
        if start < 0 or length < 0 or start + length > len(self):
            raise SequenceError(
                f"window [{start}, {start + length}) out of range for "
                f"sequence of length {len(self)}"
            )
        return DnaSequence(self._codes[start : start + length])
