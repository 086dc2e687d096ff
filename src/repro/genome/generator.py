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

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.genome import alphabet
from repro.genome.sequence import DnaSequence

#: Default GC fraction of the synthetic reference (human genome average).
DEFAULT_GC_CONTENT = 0.41


@dataclass(frozen=True)
class RepeatProfile:
    """Parameters controlling synthetic repeat structure.

    Attributes
    ----------
    tandem_fraction:
        Fraction of the genome covered by tandem repeats.
    tandem_motif_lengths:
        Inclusive range of tandem motif lengths (e.g. 2..6 bp).
    interspersed_fraction:
        Fraction covered by interspersed (Alu-like) repeats.
    interspersed_length:
        Length of the interspersed repeat element.
    interspersed_divergence:
        Per-base substitution probability applied to each inserted copy,
        modelling the sequence divergence of old repeat copies.
    """

    tandem_fraction: float = 0.03
    tandem_motif_lengths: tuple[int, int] = (2, 6)
    interspersed_fraction: float = 0.10
    interspersed_length: int = 300
    interspersed_divergence: float = 0.05

    def validate(self) -> None:
        if not 0.0 <= self.tandem_fraction <= 1.0:
            raise DatasetError("tandem_fraction must be in [0, 1]")
        if not 0.0 <= self.interspersed_fraction <= 1.0:
            raise DatasetError("interspersed_fraction must be in [0, 1]")
        if self.tandem_fraction + self.interspersed_fraction > 0.9:
            raise DatasetError("repeat fractions leave too little unique sequence")
        low, high = self.tandem_motif_lengths
        if not 1 <= low <= high:
            raise DatasetError("tandem_motif_lengths must satisfy 1 <= low <= high")
        if self.interspersed_length < 1:
            raise DatasetError("interspersed_length must be positive")
        if not 0.0 <= self.interspersed_divergence < 1.0:
            raise DatasetError("interspersed_divergence must be in [0, 1)")


@dataclass
class ReferenceGenerator:
    """Seeded generator of synthetic reference genomes.

    Parameters
    ----------
    gc_content:
        Target GC fraction of the random background.
    repeats:
        Repeat structure profile; ``None`` disables repeats entirely
        (pure i.i.d. background, useful in unit tests).
    seed:
        Seed for the internal :class:`numpy.random.Generator`.
    """

    gc_content: float = DEFAULT_GC_CONTENT
    repeats: RepeatProfile | None = field(default_factory=RepeatProfile)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repeats is not None:
            self.repeats.validate()
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def generate(self, length: int) -> DnaSequence:
        """Generate a reference of exactly *length* bases."""
        if length <= 0:
            raise DatasetError(f"reference length must be positive, got {length}")
        codes = alphabet.random_codes(length, self._rng, self.gc_content)
        if self.repeats is not None:
            codes = self._plant_tandem_repeats(codes, self.repeats)
            codes = self._plant_interspersed_repeats(codes, self.repeats)
        return DnaSequence(codes)

    # ------------------------------------------------------------------
    def _plant_tandem_repeats(self, codes: np.ndarray,
                              profile: RepeatProfile) -> np.ndarray:
        """Overwrite random stretches with tandem-repeated short motifs."""
        target = int(len(codes) * profile.tandem_fraction)
        covered = 0
        codes = codes.copy()
        low, high = profile.tandem_motif_lengths
        while covered < target:
            motif_len = int(self._rng.integers(low, high + 1))
            copies = int(self._rng.integers(5, 40))
            run = motif_len * copies
            if run > len(codes):
                break
            start = int(self._rng.integers(0, len(codes) - run + 1))
            motif = alphabet.random_codes(motif_len, self._rng, self.gc_content)
            codes[start : start + run] = np.tile(motif, copies)
            covered += run
        return codes

    def _plant_interspersed_repeats(self, codes: np.ndarray,
                                    profile: RepeatProfile) -> np.ndarray:
        """Copy a single long element to many loci with small divergence."""
        element_len = min(profile.interspersed_length, len(codes))
        if element_len == 0:
            return codes
        target = int(len(codes) * profile.interspersed_fraction)
        n_copies = max(0, target // element_len)
        if n_copies == 0:
            return codes
        codes = codes.copy()
        element = alphabet.random_codes(element_len, self._rng, self.gc_content)
        for _ in range(n_copies):
            start = int(self._rng.integers(0, len(codes) - element_len + 1))
            copy = element.copy()
            diverge = self._rng.random(element_len) < profile.interspersed_divergence
            if diverge.any():
                shift = self._rng.integers(
                    1, alphabet.ALPHABET_SIZE, size=int(diverge.sum())
                ).astype(np.uint8)
                copy[diverge] = (copy[diverge] + shift) % alphabet.ALPHABET_SIZE
            codes[start : start + element_len] = copy
        return codes


def generate_reference(length: int, seed: int = 0,
                       gc_content: float = DEFAULT_GC_CONTENT,
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
    repeats = RepeatProfile() if with_repeats else None
    return ReferenceGenerator(gc_content=gc_content, repeats=repeats,
                              seed=seed).generate(length)
