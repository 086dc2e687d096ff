"""Count knobs are positive integers at every boundary, never truncated.

``int()`` turns ``2.7`` into 2, ``True`` into 1 and ``"3"`` into 3, so a
boundary that coerced with it ran a mistyped knob as some other value.
Each boundary now rejects a ``bool``, ``float`` or ``str`` with its own
error type (:class:`~repro.errors.CamConfigError` at the shared knob
gate, :class:`~repro.errors.ServiceError` for the frontend's own pool
knobs, :class:`~repro.errors.LedgerCompactionError` at the ledger) and
accepts numpy integers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import CamArray
from repro.cost.ledger import CostLedger
from repro.errors import CamConfigError, LedgerCompactionError, ServiceError
from repro.service import MappingFrontend, StreamingMappingService


def _service(dataset, value):
    StreamingMappingService(dataset.segments, dataset.model, 3,
                            micro_batch=value).close()


def _frontend(dataset, **knob):
    MappingFrontend(dataset.segments, dataset.model, **knob).close()


def _session(dataset, value):
    with MappingFrontend(dataset.segments, dataset.model,
                         pool_workers=1) as frontend:
        frontend.session(3, micro_batch=value).close()


#: boundary -> (build it with the knob set to a value, its error type)
BOUNDARIES = {
    "service-micro_batch": (_service, CamConfigError),
    "frontend-pool_workers": (
        lambda ds, v: _frontend(ds, pool_workers=v), ServiceError),
    "frontend-max_backlog": (
        lambda ds, v: _frontend(ds, pool_workers=1, max_backlog=v),
        ServiceError),
    "session-micro_batch": (_session, CamConfigError),
    "array-ledger_compaction": (
        lambda ds, v: CamArray(rows=4, cols=8, ledger_compaction=v),
        CamConfigError),
    "ledger-compaction": (
        lambda ds, v: CostLedger(compaction=v), LedgerCompactionError),
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
    with MappingFrontend(small_dataset_a.segments, small_dataset_a.model,
                         pool_workers=np.int64(2),
                         max_backlog=np.uint8(3)) as frontend:
        assert (frontend.pool_workers, frontend.max_backlog) == (2, 3)
    array = CamArray(rows=4, cols=8, ledger_compaction=np.int16(2))
    assert array.ledger.compaction == 2
