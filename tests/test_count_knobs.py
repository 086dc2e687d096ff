"""Count knobs are positive integers at every boundary, never truncated.

``int()`` turns ``2.7`` into 2, ``True`` into 1 and ``"3"`` into 3, so a
boundary that coerced with it ran a mistyped knob as some other value.
Each boundary now rejects a ``bool``, ``float`` or ``str`` with its own
error type (:class:`~repro.errors.CamConfigError` at the shared knob
gate and at a stored reference's row capacity, :class:`~repro.errors.LedgerCompactionError` at the ledger,
:class:`~repro.errors.RefStoreError` at the catalog's byte budget,
:class:`~repro.errors.ExperimentError` at the sweep's run count) and
accepts numpy integers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray, StoredReference
from repro.cost.ledger import CostLedger
from repro.errors import (
    CamConfigError,
    ExperimentError,
    LedgerCompactionError,
    RefStoreError,
)
from repro.eval.experiment import asmcap_plain_system
from repro.eval.sweeps import run_sweep
from repro.refstore import ReferenceCatalog
from repro.service import MappingFrontend, StreamingMappingService


def _service(dataset, value):
    StreamingMappingService(dataset.segments, dataset.model, 3,
                            micro_batch=value).close()


def _session(dataset, value):
    with MappingFrontend(dataset.segments, dataset.model) as frontend:
        frontend.session(3, micro_batch=value).close()


#: boundary -> (build it with the knob set to a value, its error type)
BOUNDARIES = {
    "service-micro_batch": (_service, CamConfigError),
    "session-micro_batch": (_session, CamConfigError),
    "catalog-byte_budget": (
        lambda ds, v: ReferenceCatalog(byte_budget=v).close(),
        RefStoreError),
    "sweep-n_runs": (lambda ds, v: run_sweep(
        "A", {"plain": asmcap_plain_system}, [2], n_runs=v, n_reads=4,
        read_length=32, n_segments=8), ExperimentError),
    "array-ledger_compaction": (
        lambda ds, v: CamArray(rows=4, cols=8, ledger_compaction=v),
        CamConfigError),
    "ledger-compaction": (
        lambda ds, v: CostLedger(compaction=v), LedgerCompactionError),
    "stored-rows": (
        lambda ds, v: StoredReference(ds.segments[:2], rows=v),
        CamConfigError),
    "encode-rows": (
        lambda ds, v: StoredReference.encode(ds.segments[:2], rows=v),
        CamConfigError),
}


@pytest.mark.parametrize("value", [2.7, True, "3", 2.0],
                         ids=["float", "bool", "str", "integral-float"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_integer_count_raises_the_boundary_error(small_dataset_a,
                                                     boundary, value):
    build, error = BOUNDARIES[boundary]
    with pytest.raises(error, match="must be an integer"):
        build(small_dataset_a, value)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_numpy_integer_count_is_accepted(small_dataset_a, boundary):
    build, _ = BOUNDARIES[boundary]
    build(small_dataset_a, np.int64(2))


def test_accepted_counts_keep_their_value(small_dataset_a):
    service = StreamingMappingService(
        small_dataset_a.segments, small_dataset_a.model, 3,
        micro_batch=np.int32(5))
    assert service.micro_batch == 5
    service.close()
    catalog = ReferenceCatalog(byte_budget=np.uint32(1 << 20))
    assert catalog.stats().byte_budget == 1 << 20
    assert type(catalog.stats().byte_budget) is int
    catalog.close()
    sweep = run_sweep("A", {"plain": asmcap_plain_system}, [2],
                      n_runs=np.int64(3), n_reads=4, read_length=32,
                      n_segments=8)
    assert sweep.systems["plain"].f1_runs.shape == (3, 1)
    array = CamArray(rows=4, cols=8, ledger_compaction=np.int16(2))
    assert array.ledger.compaction == 2
