"""Brute-force references the live code is tested against.

Each one is the plain, unvectorised statement of something the library
computes faster; none is on a library path, so they live here and not
under ``src/``.  ``fold_events`` is the ledger's running fold stated
over a whole event list.  ``record_events`` (a spy collecting what a
ledger records), ``watch_count_blocks`` (its weak twin),
``search_passes`` (a filter over what was collected) and
``events_equal`` are the plain test helpers several suites share.
Import them as ``from oracles import ...`` (pytest puts ``tests/`` on
``sys.path`` through its root ``conftest.py``).
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from repro.cam.cell import MatchMode
from repro.cam.keyed_noise import uniforms
from repro.cost.events import LedgerEvent, SearchPassEvent, TasrRotationPass
from repro.cost.views import SearchStats
from repro.genome.sequence import DnaSequence

#: Searchline value for a missing neighbour at a row edge; no stored
#: code equals it, so the comparison never matches.
NO_NEIGHBOR = -1


def cell_planes(stored: int, left: int, co_located: int,
                right: int) -> "tuple[bool, bool, bool]":
    """The three comparator outputs ``(O_L, O_C, O_R)`` of one ASMCap
    cell storing *stored* (Fig. 4(c))."""
    return left == stored, co_located == stored, right == stored


def cell_output(stored: int, left: int, co_located: int, right: int,
                mode: MatchMode) -> int:
    """Cell output ``O`` after the mode MUX: 1 = mismatched cell.

    ED* mode (``S = 1``) matches when any comparator matches; HD mode
    (``S = 0``) looks at the co-located base only.
    """
    o_l, o_c, o_r = cell_planes(stored, left, co_located, right)
    matched = (o_l or o_c or o_r) if mode is MatchMode.ED_STAR else o_c
    return 0 if matched else 1


def row_mismatch_count(segment: np.ndarray, read: np.ndarray,
                       mode: MatchMode) -> int:
    """A row's mismatch count, one cell at a time."""
    length = len(segment)
    total = 0
    for i, stored in enumerate(segment):
        left = int(read[i - 1]) if i > 0 else NO_NEIGHBOR
        right = int(read[i + 1]) if i < length - 1 else NO_NEIGHBOR
        total += cell_output(int(stored), left, int(read[i]), right, mode)
    return total


def edit_distance_matrix(a: DnaSequence, b: DnaSequence) -> np.ndarray:
    """The full ``(len(a)+1, len(b)+1)`` Levenshtein table ``M[i, j]``,
    filled cell by cell."""
    x, y = a.codes, b.codes
    table = np.zeros((len(x) + 1, len(y) + 1), dtype=np.int32)
    table[:, 0] = np.arange(len(x) + 1)
    table[0, :] = np.arange(len(y) + 1)
    for i in range(1, len(x) + 1):
        for j in range(1, len(y) + 1):
            table[i, j] = min(table[i - 1, j - 1] + (x[i - 1] != y[j - 1]),
                              table[i - 1, j] + 1, table[i, j - 1] + 1)
    return table


def dense_keyed_selection(ed: np.ndarray, hd: np.ndarray, p: np.ndarray,
                          states: np.ndarray) -> np.ndarray:
    """HDAC's keyed selection with one draw per (query, row) cell.

    The ``i``-th disagreeing row of a query takes counter ``i`` of its
    stream; agreeing rows draw too and are masked out.
    """
    disagree = ed != hd
    ordinal = np.cumsum(disagree, axis=-1, dtype=np.uint64) - np.uint64(1)
    return disagree & (uniforms(states, ordinal) < p)


def record_events(ledger) -> "list[LedgerEvent]":
    """A spy on one ledger: the returned list collects every event the
    ledger records from now on, oldest first.  The ledger itself keeps
    no event, so tests that inspect events install this first."""
    recorded: "list[LedgerEvent]" = []
    fold = ledger.record

    def record(event: LedgerEvent) -> None:
        recorded.append(event)
        fold(event)

    ledger.record = record
    return recorded


def watch_count_blocks(ledger) -> "list[weakref.ref]":
    """A weak spy on one ledger: the returned list gains a weak
    reference to the count block of every search pass the ledger
    records from now on, and keeps none of them alive."""
    watched: "list[weakref.ref]" = []
    fold = ledger.record

    def record(event: LedgerEvent) -> None:
        if isinstance(event, SearchPassEvent):
            watched.append(weakref.ref(event.mismatch_counts))
        fold(event)

    ledger.record = record
    return watched


def fold_events(events) -> SearchStats:
    """Cumulative counters over a recorded event sequence, one event at
    a time in order: the plain statement of the ledger's running fold."""
    stats = SearchStats()
    for event in events:
        if not isinstance(event, SearchPassEvent):
            continue
        stats.n_searches += event.n_queries
        if isinstance(event, TasrRotationPass):
            stats.n_rotation_cycles += event.shift_cycles
        stats.total_energy_joules += event.energy_joules
        stats.total_latency_ns += event.latency_ns
    return stats


def events_equal(a, b) -> bool:
    """Two recorded event sequences hold the same event types with
    ``==`` fields, arrays compared element-wise."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            same = (np.array_equal(u, v) if isinstance(u, np.ndarray)
                    else u == v)
            if not same:
                return False
    return True


def search_passes(events) -> "tuple[SearchPassEvent, ...]":
    """The search-pass events of a recorded sequence, oldest first."""
    return tuple(event for event in events
                 if isinstance(event, SearchPassEvent))
