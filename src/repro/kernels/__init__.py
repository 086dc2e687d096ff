"""repro.kernels — the one mismatch-count kernel.

:func:`counts_batch` and :func:`counts_batch_dual` compute every
digital count the CAM searches decide on, through a float32 one-hot
GEMM (:mod:`repro.kernels.gemm`).  Query blocks carrying codes outside
ACGT route to the boolean fallback, which is also the test oracle.
The counts are exact integers, equal to the boolean reference's, so
decisions, ledger events and reports never depend on how they were
computed; they come in the narrowest unsigned dtype holding the row
length (see ``docs/api.md``, "Count kernel").
"""

from repro.kernels.base import (
    ENCODED_REFERENCE_FIELDS,
    EncodedReference,
    encode_reference,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
)
from repro.kernels.gemm import counts_batch, counts_batch_dual

__all__ = [
    "ENCODED_REFERENCE_FIELDS",
    "EncodedReference",
    "counts_batch",
    "counts_batch_dual",
    "encode_reference",
    "encoded_reference_arrays",
    "encoded_reference_from_arrays",
]
