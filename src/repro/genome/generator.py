"""Synthetic "human-like" reference genome generator.

The paper evaluates on reads extracted from the NCBI human genome
(Section V-A).  We have no network access, so this module synthesises
references with the statistical features that matter to the experiment:

* **GC bias** — human DNA averages ~41 % GC.
* **Tandem repeats** — short motifs repeated back-to-back (microsatellites),
  which create near-duplicate reference segments and therefore *hard
  negatives* for an approximate matcher.
* **Interspersed repeats** — long motifs (Alu-like, ~300 bp) copied with
  slight divergence to many locations, the dominant repeat class in the
  human genome.

The experiment's decision problem (does segment S match read R within
threshold T?) only depends on the read/edit model and on how similar
*non-origin* segments are to the read, and the repeat machinery controls
exactly that.  Real FASTA references can be substituted at any time via
:mod:`repro.genome.io_fasta`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.genome import alphabet
from repro.genome.sequence import DnaSequence

#: GC fraction of the synthetic background (human genome average).
GC_CONTENT = 0.41

#: The repeat structure: the genome fraction covered by tandem repeats
#: and their inclusive motif-length range (bp) ...
TANDEM_FRACTION = 0.03
TANDEM_MOTIF_LENGTHS = (2, 6)
#: ... and the fraction covered by copies of one interspersed
#: (Alu-like) element of this length, each copy diverged by this
#: per-base substitution probability (old repeat copies).
INTERSPERSED_FRACTION = 0.10
INTERSPERSED_LENGTH = 300
INTERSPERSED_DIVERGENCE = 0.05


@dataclass
class ReferenceGenerator:
    """Seeded generator of synthetic reference genomes.

    Parameters
    ----------
    repeats:
        Plant the tandem and interspersed repeats; ``False`` gives a
        pure i.i.d. background (useful in unit tests).
    seed:
        Seed for the internal :class:`numpy.random.Generator`.
    """

    repeats: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def generate(self, length: int) -> DnaSequence:
        """Generate a reference of exactly *length* bases."""
        if length <= 0:
            raise DatasetError(f"reference length must be positive, got {length}")
        codes = alphabet.random_codes(length, self._rng, GC_CONTENT)
        if self.repeats:
            codes = self._plant_tandem_repeats(codes)
            codes = self._plant_interspersed_repeats(codes)
        return DnaSequence(codes)

    # ------------------------------------------------------------------
    def _plant_tandem_repeats(self, codes: np.ndarray) -> np.ndarray:
        """Overwrite random stretches with tandem-repeated short motifs."""
        target = int(len(codes) * TANDEM_FRACTION)
        covered = 0
        codes = codes.copy()
        low, high = TANDEM_MOTIF_LENGTHS
        while covered < target:
            motif_len = int(self._rng.integers(low, high + 1))
            copies = int(self._rng.integers(5, 40))
            run = motif_len * copies
            if run > len(codes):
                break
            start = int(self._rng.integers(0, len(codes) - run + 1))
            motif = alphabet.random_codes(motif_len, self._rng, GC_CONTENT)
            codes[start : start + run] = np.tile(motif, copies)
            covered += run
        return codes

    def _plant_interspersed_repeats(self, codes: np.ndarray) -> np.ndarray:
        """Copy a single long element to many loci with small divergence."""
        element_len = min(INTERSPERSED_LENGTH, len(codes))
        if element_len == 0:
            return codes
        target = int(len(codes) * INTERSPERSED_FRACTION)
        n_copies = max(0, target // element_len)
        if n_copies == 0:
            return codes
        codes = codes.copy()
        element = alphabet.random_codes(element_len, self._rng, GC_CONTENT)
        for _ in range(n_copies):
            start = int(self._rng.integers(0, len(codes) - element_len + 1))
            copy = element.copy()
            diverge = self._rng.random(element_len) < INTERSPERSED_DIVERGENCE
            if diverge.any():
                shift = self._rng.integers(
                    1, alphabet.ALPHABET_SIZE, size=int(diverge.sum())
                ).astype(np.uint8)
                copy[diverge] = (copy[diverge] + shift) % alphabet.ALPHABET_SIZE
            codes[start : start + element_len] = copy
        return codes


def generate_reference(length: int, seed: int = 0,
                       with_repeats: bool = True) -> DnaSequence:
    """Convenience wrapper: one call, one synthetic reference.

    *length* must be a positive integer and *seed* an integer
    (:class:`~repro.errors.DatasetError`), never truncated.
    """
    # Function-level: repro.knobs sits above this layer (CL501).
    from repro.knobs import check_count, check_integer

    check_count("length", check_integer("length", length, DatasetError),
                DatasetError)
    seed = check_integer("seed", seed, DatasetError)
    return ReferenceGenerator(repeats=with_repeats,
                              seed=seed).generate(length)
