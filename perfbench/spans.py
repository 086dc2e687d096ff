"""In-memory span tracer that wraps public callables from outside.

A :class:`Probe` names one callable by where its *caller* resolves it
(``"repro.cam.array"`` + ``"standard_normals"`` patches the name the
array module imported by value; ``"CamArray.search_batch"`` patches the
class attribute every instance looks up).  :meth:`Tracer.install`
replaces each target with a wrapper that records one :class:`Span` per
call and optional work counters; :meth:`Tracer.restore` puts the
original objects back exactly (classmethods included).  Targets that
no longer exist are skipped and listed in :attr:`Tracer.missing` so a
renamed function shows up as a zero-call probe instead of a crash.

Spans carry a parent (the innermost open span on the same thread), the
thread id and the load generator's current unit id.  Self time is a
span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 = no open span on this thread
    thread: int
    unit: int  # -1 = outside any load-generator unit


#: ``work(args, kwargs, result) -> {counter: amount}`` for one call.
WorkFn = Callable[[tuple, dict, object], "dict[str, float]"]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: its span name and where the caller finds it.

    ``calls`` decides whether entering this callable counts toward the
    ``<span>.calls`` counter (helpers nested under a counted entry point
    set it to False so one logical call is counted once).
    """

    span: str
    module: str
    attr: str
    calls: bool = True
    work: "WorkFn | None" = None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.attr}"


def _resolve(probe: Probe) -> "tuple[object, str, object]":
    """``(owner, name, raw)`` for a probe; raises AttributeError/ImportError."""
    owner: object = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The raw class-dict entry, so a classmethod is restored as one.
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return owner, name, klass.__dict__[name]
        raise AttributeError(f"{probe.attr} not found")
    return owner, name, getattr(owner, name)


class Tracer:
    """Collects spans and counters from wrapped callables."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counters: "Counter[str]" = Counter()
        self.missing: "list[str]" = []
        self.unit = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: "list[tuple[object, str, object]]" = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """A wrapper recording one span (and counters) per call of *fn*."""
        tracer = self
        name = probe.span
        calls_key = f"{name}.calls" if probe.calls else None
        hits_key = f"probe:{probe.key}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         threading.get_ident(), tracer.unit))
            work = probe.work(args, kwargs, result) if probe.work else {}
            with tracer._lock:
                tracer.counters[hits_key] += 1
                if calls_key is not None:
                    tracer.counters[calls_key] += 1
                for key, amount in work.items():
                    tracer.counters[key] += amount
            return result

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self, probes: Iterable[Probe]) -> None:
        """Patch every resolvable probe target with a recording wrapper."""
        for probe in probes:
            try:
                owner, name, raw = _resolve(probe)
            except (ImportError, AttributeError):
                self.missing.append(probe.key)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(probe, raw.__func__))
            else:
                patched = self.wrap(probe, raw)
            self._installed.append((owner, name, raw))
            setattr(owner, name, patched)

    def restore(self) -> None:
        """Put every patched original back (reverse install order)."""
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "list[Span]") -> "dict[str, float]":
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    its direct children cover.  Children are linked per thread, so a
    span on another thread running concurrently never counts as a child.
    """
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: "dict[str, float]" = {}
    for span in spans:
        covered = _union_length([
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.sid, ())
            if end > span.start and start < span.end
        ])
        own = (span.end - span.start) - covered
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def uncovered_time(spans: "list[Span]", window: "tuple[float, float]") -> float:
    """Wall time inside *window* that no span (on any thread) covers."""
    lo, hi = window
    covered = _union_length([
        (max(span.start, lo), min(span.end, hi))
        for span in spans if span.end > lo and span.start < hi
    ])
    return (hi - lo) - covered
