"""Typed hardware cost events.

An event records **what the hardware did** — which pass, over how many
queries, against how many stored rows, and the per-row mismatch
populations the pass observed.  Events never carry joules or watts:
energy, latency and power are *derived views* computed from the event
by :mod:`repro.cost.views` through the physical models.  That split is
what keeps the scalar, batched and sweep execution paths on one
accounting model (see DESIGN.md, "Cost-ledger contract").

Event taxonomy
--------------

* :class:`EdStarPass` — one ED* search pass (the base search of the
  matching flow, or EDAM's plain search);
* :class:`HdacPass` — the Hamming-distance pass HDAC issues when the
  workload's ``p`` is worth the extra cycle (Algorithm 1);
* :class:`TasrRotationPass` — one rotated ED* pass of TASR (or EDAM's
  unconditional SR), carrying the rotation offset so the shift-register
  cycle count is derivable;
* :class:`ReferenceLoad` — reference segments written into an array
  (or encoded once for a frontend's shared reference).

A *pass* event covers a whole query block: ``mismatch_counts`` is the
``(B, M)`` matrix of digital mismatch populations (query, stored row),
exactly what the sense amplifiers converted to decisions.  Scalar
searches record a ``(1, M)`` block.  ``thresholds`` holds the ``(T,)``
sense-amp reference levels the pass's analog voltages were decided
against: ``(1,)`` for a scalar or batched search, the sweep vector for
a sweep pass, where one physical pass serves every threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LedgerEvent:
    """Base class for every cost-ledger event."""


@dataclass(frozen=True, eq=False)
class SearchPassEvent(LedgerEvent):
    """One physical search pass through a CAM array.

    Attributes
    ----------
    domain:
        ``"charge"`` (ASMCap) or ``"current"`` (EDAM) — selects the
        energy model the views apply.
    mode:
        ``"ed_star"`` or ``"hamming"`` — which comparison the cells ran.
    n_cells:
        Row width ``N`` (bases per stored segment).
    vdd:
        Supply voltage of the array that ran the pass.
    search_time_ns:
        The array's search-cycle time (one pass per query).
    mismatch_counts:
        ``(B, M)`` digital mismatch populations (query, stored row);
        kernel blocks are unsigned, in the narrowest dtype holding
        ``N``.
    thresholds:
        ``(T,)`` sense-amp reference levels the pass was decided
        against: ``(1,)`` for a batch, the sweep vector for a sweep.
    query_keys:
        The per-query noise keys of the pass (None for synthetic
        events, such as the analytic typical-activity pass).
    """

    domain: str
    mode: str
    n_cells: int
    vdd: float
    search_time_ns: float
    mismatch_counts: np.ndarray
    thresholds: np.ndarray
    query_keys: "np.ndarray | None" = None

    @property
    def n_queries(self) -> int:
        """Queries that physically streamed through the array."""
        return int(self.mismatch_counts.shape[0])

    @property
    def n_rows(self) -> int:
        """Stored rows ``M`` the pass compared against."""
        return int(self.mismatch_counts.shape[1])

    @property
    def shift_cycles(self) -> int:
        """Shift-register cycles this pass spent (rotated passes only)."""
        return 0

    # -- derived views (cached; computed by repro.cost.views) ------------

    @property
    def energy_per_query_joules(self) -> np.ndarray:
        """``(B,)`` array energy per query (derived view, cached)."""
        cached = self.__dict__.get("_energy_per_query")
        if cached is None:
            from repro.cost import views

            cached = views.search_pass_energy_per_query(self)
            object.__setattr__(self, "_energy_per_query", cached)
        return cached

    def seed_energy_per_query(self, energy: np.ndarray) -> None:
        """Cache the energy view from values gathered elsewhere.

        A pass block gathers the energies of its passes in one call
        (:meth:`repro.cam.array.CamArray.search_batch`); each pass's
        slice is ``==`` :func:`~repro.cost.views.
        search_pass_energy_per_query` over this event, so seeding it
        spares the ledger fold from computing it again.
        """
        object.__setattr__(self, "_energy_per_query", energy)

    @property
    def energy_joules(self) -> float:
        """Total array energy of the pass (derived view)."""
        return float(self.energy_per_query_joules.sum())

    @property
    def latency_ns(self) -> float:
        """Array-occupancy time of the pass (one cycle per query)."""
        return self.search_time_ns * self.n_queries


@dataclass(frozen=True, eq=False)
class EdStarPass(SearchPassEvent):
    """The base (unrotated) ED* search pass."""


@dataclass(frozen=True, eq=False)
class HdacPass(SearchPassEvent):
    """HDAC's extra Hamming-distance pass (Algorithm 1)."""


@dataclass(frozen=True, eq=False)
class TasrRotationPass(SearchPassEvent):
    """One rotated ED* pass (TASR's Algorithm 2, or EDAM's SR).

    ``rotation`` is the signed rotation offset (positive = left); each
    base of rotation costs one shift-register cycle per query.
    """

    rotation: int = 0

    @property
    def shift_cycles(self) -> int:
        return abs(int(self.rotation)) * self.n_queries


@dataclass(frozen=True, eq=False)
class ReferenceLoad(LedgerEvent):
    """Reference segments written into storage.

    Attributes
    ----------
    n_segments:
        Rows written.
    n_cells:
        Bases per row.
    """

    n_segments: int
    n_cells: int

    @property
    def n_bases(self) -> int:
        return self.n_segments * self.n_cells
