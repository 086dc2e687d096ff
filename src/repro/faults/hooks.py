"""Named injection hook points and the arming registry.

The runtime side of :mod:`repro.faults`: production modules call
:func:`fire` at their named hook points (see
:data:`~repro.faults.plan.HOOK_POINTS`), and the call is a no-op unless
a :class:`~repro.faults.plan.FaultPlan` is **armed** via :func:`arm`.
The unarmed fast path is a single module-global ``None`` check — no
locks, no allocation beyond the call itself — which is what lets the
hooks live permanently on the dispatch paths.

Armed, every ``fire(point)`` increments that point's hit counter (under
one lock, so concurrent dispatch threads count consistently) and, when
the plan schedules a fault on ``(point, hit)``, applies the fault's
action: flipping payload bytes, truncating a store buffer, corrupting
a store file, raising a typed error, or sleeping.  Actions run
*outside* the counter lock — a stall must not serialise unrelated hook
points.

Arming is deliberately process-local and non-reentrant: one armed plan
at a time.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

from repro.errors import CamConfigError
from repro.faults.plan import HOOK_POINTS, Fault, FaultPlan

__all__ = ["FaultInjector", "arm", "fire", "armed"]

#: The armed injector; ``None`` = unarmed (the zero-overhead fast path).
_ACTIVE: "FaultInjector | None" = None

#: Stall bounds (seconds) for the latency-only kinds: long enough to
#: perturb any accidental wall-clock coupling, short enough that a
#: chaos soak of dozens of schedules stays fast.
_STALL_MIN_SECONDS = 0.001
_STALL_MAX_SECONDS = 0.020


def fire(point: str, **ctx) -> None:
    """Reach a named hook point; applies a fault only when armed.

    Production call sites invoke this unconditionally — the unarmed
    path returns immediately.  *ctx* carries whatever the point's
    faults may need (a mutable buffer, a file path); unused context
    is ignored.
    """
    injector = _ACTIVE
    if injector is None:
        return
    injector._fire(point, ctx)


def armed() -> bool:
    """Whether a fault plan is currently armed in this process."""
    return _ACTIVE is not None


class FaultInjector:
    """One armed plan's runtime state: hit counters and the fired log.

    Created by :func:`arm`; :attr:`fired` lists the faults that
    actually triggered, in firing order — the evidence the
    :class:`~repro.faults.checker.InvariantChecker` judges a chaos run
    against (a scheduled fault whose hit was never reached is vacuous).
    """

    def __init__(self, plan: FaultPlan):
        for fault in plan.faults:
            if fault.point not in HOOK_POINTS:
                raise CamConfigError(
                    f"fault plan names unknown hook point "
                    f"{fault.point!r}; known: {HOOK_POINTS}"
                )
        self._plan = plan
        self._schedule = {(fault.point, fault.hit): fault
                          for fault in plan.faults}
        self._counts: "dict[str, int]" = {}
        self._lock = threading.Lock()
        self.fired: "list[Fault]" = []

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def hit_counts(self) -> "dict[str, int]":
        """Times each hook point has been reached so far."""
        with self._lock:
            return dict(self._counts)

    def _fire(self, point: str, ctx: dict) -> None:
        with self._lock:
            hit = self._counts.get(point, 0)
            self._counts[point] = hit + 1
            fault = self._schedule.get((point, hit))
            if fault is not None:
                self.fired.append(fault)
        if fault is not None:
            # Outside the lock: a stall must not serialise
            # other hook points (or deadlock a concurrent fire).
            _apply(fault, ctx)


@contextlib.contextmanager
def arm(plan: FaultPlan):
    """Arm *plan* for the dynamic extent of the ``with`` block.

    Yields the :class:`FaultInjector` (read its :attr:`~FaultInjector.
    fired` log afterwards).  Non-reentrant: arming while armed raises
    :class:`~repro.errors.CamConfigError` — overlapping chaos runs
    would make hit counts meaningless.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise CamConfigError(
            "a fault plan is already armed in this process; chaos "
            "runs must not overlap"
        )
    injector = FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


# -- fault actions -----------------------------------------------------------


def _apply(fault: Fault, ctx: dict) -> None:
    action = _ACTIONS[fault.kind]
    action(fault, ctx)


def _stall(fault: Fault, ctx: dict) -> None:
    span = _STALL_MAX_SECONDS - _STALL_MIN_SECONDS
    time.sleep(_STALL_MIN_SECONDS + (fault.arg % 1000) / 1000.0 * span)


def _payload_bounds(buf) -> "tuple[int, int]":
    """(payload_start, payload_length) read from a sealed container
    header — so corruption always lands on CRC-covered bytes even when
    the buffer is page-rounded past the payload."""
    from repro.refstore.header import HEADER, aligned

    _, _, meta_length, _, _, payload_length = HEADER.unpack_from(buf, 0)
    return aligned(HEADER.size + meta_length), payload_length


def _flip_payload_byte(fault: Fault, ctx: dict) -> None:
    buf = ctx.get("buf")
    if buf is None:
        return
    start, length = _payload_bounds(buf)
    if length <= 0:
        return
    offset = start + fault.arg % length
    buf[offset] = buf[offset] ^ 0x01


def _truncate_store(fault: Fault, ctx: dict) -> None:
    buf = ctx.get("buf")
    if buf is None:
        return
    start, length = _payload_bounds(buf)
    del buf[start + length // 2:]


def _corrupt_store_file(fault: Fault, ctx: dict) -> None:
    path = ctx.get("path")
    if path is None or not os.path.isfile(path):
        return
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0x01]))


def _poison_read(fault: Fault, ctx: dict) -> None:
    raise CamConfigError(
        f"injected poisoned read at {fault.point} "
        f"(hit {fault.hit}, plan arg {fault.arg})"
    )


_ACTIONS = {
    "store_truncate": _truncate_store,
    "store_crc_flip": _flip_payload_byte,
    "poisoned_open": _corrupt_store_file,
    "poisoned_read": _poison_read,
    "slow_batch": _stall,
}
