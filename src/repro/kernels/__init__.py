"""repro.kernels — the mismatch-count kernel and its backend registry.

One lane is registered: ``"numpy-gemm"``, the float32 one-hot GEMM.
Query codes outside ACGT route to the shared boolean fallback, which
is also the test oracle.  The registry seam stays so a future lane
can be added, raced and selected without touching the search paths.

Selection order everywhere: explicit ``backend=`` knob >
``REPRO_KERNEL_BACKEND`` env var > ``repro.arch.autotune.plan_backend``
(cached per-machine micro-calibration over the registered lanes).  A
backend must return exactly the boolean reference's integer counts, so
decisions, ledger events and reports never depend on the choice (see
``docs/api.md``, "Kernel backends").
"""

from repro.kernels.base import (
    ENCODED_REFERENCE_FIELDS,
    EncodedReference,
    KernelBackend,
    encode_reference,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
)
from repro.kernels.registry import (
    DEFAULT_BACKEND,
    KERNEL_BACKEND_ENV,
    as_backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.kernels.gemm import GemmBackend

__all__ = [
    "DEFAULT_BACKEND",
    "ENCODED_REFERENCE_FIELDS",
    "EncodedReference",
    "encoded_reference_arrays",
    "encoded_reference_from_arrays",
    "GemmBackend",
    "KERNEL_BACKEND_ENV",
    "KernelBackend",
    "as_backend",
    "available_backends",
    "encode_reference",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
