"""Exception hierarchy for the ASMCap reproduction library.

All library-specific exceptions derive from :class:`ReproError` so callers
can catch everything the library raises with a single ``except`` clause
while still being able to distinguish configuration problems from data
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class SequenceError(ReproError):
    """A DNA sequence is malformed (bad alphabet, bad length, ...)."""


class AlphabetError(SequenceError):
    """A character outside the ``ACGT`` alphabet was encountered."""


class EditModelError(ReproError):
    """An edit-injection model was configured with invalid rates."""


class CamConfigError(ReproError):
    """A CAM array or cell was configured inconsistently."""

    # Raised, for example, when a stored segment does not fit the row
    # width, or when a search is issued against an empty array.


class ArchConfigError(ReproError):
    """An accelerator architecture configuration is invalid."""


class ThresholdError(ReproError):
    """A matching threshold is out of the representable range."""


class DatasetError(ReproError):
    """A dataset could not be built or parsed (FASTA/FASTQ included)."""


class ExperimentError(ReproError):
    """An experiment driver was invoked with inconsistent parameters."""


class ServiceError(ReproError):
    """A streaming mapping service was used outside its lifecycle."""


class RefStoreError(CamConfigError):
    """An on-disk reference store or catalog operation failed.

    Raised when a stored-reference file is corrupt, truncated, of the
    wrong format/version, or when a :class:`~repro.refstore.catalog.
    ReferenceCatalog` rule is violated (evicting a pinned reference,
    borrowing an unknown name, exceeding lifecycle bounds).  Derives
    from :class:`CamConfigError` so callers that already guard
    configuration errors catch file-store failures with the same
    ``except`` clause.
    """
