"""DNA alphabet utilities: 2-bit base encoding and validation.

Genome sequences consist of the four bases Adenine (A), Guanine (G),
Cytosine (C) and Thymine (T).  Internally the library stores sequences as
``numpy`` arrays of 2-bit codes (``uint8`` values 0..3), which matches the
hardware encoding the paper assumes: each ASMCap cell stores one base in
two 6T SRAM cells (Fig. 4(c)), i.e. exactly two bits.

Ambiguity codes (``N`` etc.) that appear in real FASTA files are resolved
*before* encoding (see :mod:`repro.genome.io_fasta`), because the CAM
hardware has no representation for them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlphabetError

#: Canonical base order.  Code 0=A, 1=C, 2=G, 3=T (alphabetical).
BASES = ("A", "C", "G", "T")

#: Number of distinct bases.
ALPHABET_SIZE = 4

#: Bits needed per base in the SRAM storage model.
BITS_PER_BASE = 2

#: Map base character -> 2-bit code.
BASE_TO_CODE = {base: code for code, base in enumerate(BASES)}

#: Map 2-bit code -> base character.
CODE_TO_BASE = {code: base for code, base in enumerate(BASES)}

# Lookup table from ASCII byte -> code (255 marks invalid characters).
_ASCII_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    _ASCII_TO_CODE[ord(_base)] = _code
    _ASCII_TO_CODE[ord(_base.lower())] = _code

_CODE_TO_ASCII = np.array([ord(b) for b in BASES], dtype=np.uint8)


def encode(text: str) -> np.ndarray:
    """Encode a base string into an array of 2-bit codes.

    Parameters
    ----------
    text:
        A string over ``ACGT`` (case insensitive).

    Returns
    -------
    numpy.ndarray
        ``uint8`` array with values in ``{0, 1, 2, 3}``.

    Raises
    ------
    AlphabetError
        If any character is outside the DNA alphabet.
    """
    raw = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
    codes = _ASCII_TO_CODE[raw]
    bad = codes == 255
    if bad.any():
        index = int(np.argmax(bad))
        raise AlphabetError(
            f"invalid base {text[index]!r} at position {index}; "
            "expected one of A, C, G, T"
        )
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode an array of 2-bit codes back into a base string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and int(codes.max()) >= ALPHABET_SIZE:
        raise AlphabetError(
            f"code {int(codes.max())} out of range 0..{ALPHABET_SIZE - 1}"
        )
    return _CODE_TO_ASCII[codes].tobytes().decode("ascii")


def random_codes(length: int, rng: np.random.Generator,
                 gc_content: float = 0.5) -> np.ndarray:
    """Draw *length* random base codes with a target GC content.

    ``gc_content`` is the total probability of drawing C or G (split
    evenly between them); A and T share the remainder evenly.  The human
    genome averages ~41 % GC, which the synthetic reference generator
    uses by default.
    """
    if not 0.0 <= gc_content <= 1.0:
        raise AlphabetError(f"gc_content must be in [0, 1], got {gc_content}")
    if length < 0:
        raise AlphabetError(f"length must be non-negative, got {length}")
    at = (1.0 - gc_content) / 2.0
    gc = gc_content / 2.0
    probabilities = np.array([at, gc, gc, at])  # order A, C, G, T
    return rng.choice(ALPHABET_SIZE, size=length, p=probabilities).astype(np.uint8)
