"""The assembled accelerator: arrays + buffer + H-tree + controller.

:class:`AsmCapAccelerator` offers two complementary paths:

* a **functional path** (``match_batch``, with ``match_read`` its
  one-row slice): reads are broadcast to every array, each array
  searches its stored segments (with full strategy support through
  per-array matchers), and the result maps global segment indices to
  decisions.  Every draw is keyed by ``(seed, query_key, pass)``.  Use
  moderate array counts here — it simulates every cell.

* an **analytic path** (``estimate_read_cost``): closed-form per-read
  latency/energy at full system scale (512 arrays) from the timing and
  energy models plus strategy statistics (how many searches per read on
  average).  Fig. 8 uses this, with strategy statistics measured on the
  functional path at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.arch.buffer import Controller, GlobalBuffer
from repro.arch.config import ArchConfig
from repro.arch.htree import HTreeModel
from repro.arch.timing import TimingModel
from repro.cam.array import CamArray
from repro.cam.energy import search_energy_per_row
from repro.core.matcher import AsmCapMatcher, MatchBatchOutcome, MatcherConfig
from repro.cost.events import BufferBroadcast, ReferenceLoad
from repro.cost.ledger import CostLedger
from repro.cost.profile import StrategyProfile
from repro.errors import ArchConfigError
from repro.genome.edits import ErrorModel


@dataclass(frozen=True)
class SystemMatch:
    """One read's system-level result.

    ``matches`` maps global segment index -> True for every matched
    stored segment across all arrays.
    """

    matches: np.ndarray
    latency_ns: float
    energy_joules: float
    n_searches: int


@dataclass(frozen=True)
class ReadCostEstimate:
    """Analytic per-read cost at full system scale."""

    latency_ns: float
    energy_joules: float
    searches_per_read: float
    reads_per_second: float

    @property
    def reads_per_joule(self) -> float:
        if self.energy_joules == 0.0:
            return float("inf")
        return 1.0 / self.energy_joules


class AsmCapAccelerator:
    """Multi-array accelerator with system-level cost accounting.

    Parameters
    ----------
    config:
        Architecture geometry/domain.
    error_model:
        Workload error rates (drives the strategies).
    matcher_config:
        Strategy configuration shared by all arrays.
    n_functional_arrays:
        How many arrays to actually instantiate for the functional
        path; defaults to ``config.n_arrays`` (cap it for speed).
    backend:
        Kernel backend for every functional array's mismatch-count
        primitives (``None`` = the standard selection order; see
        :mod:`repro.kernels`).
    """

    def __init__(self, config: "ArchConfig | None" = None,
                 error_model: "ErrorModel | None" = None,
                 matcher_config: "MatcherConfig | None" = None,
                 n_functional_arrays: "int | None" = None,
                 seed: int = 0,
                 noisy: bool = True,
                 backend: "str | None" = None):
        self._config = config or ArchConfig.paper_system()
        self._model = error_model or ErrorModel.condition_a()
        self._matcher_config = matcher_config or MatcherConfig()
        n_func = (self._config.n_arrays if n_functional_arrays is None
                  else n_functional_arrays)
        if not 1 <= n_func <= self._config.n_arrays:
            raise ArchConfigError(
                f"n_functional_arrays must be in 1..{self._config.n_arrays}, "
                f"got {n_func}"
            )
        self._arrays = [
            CamArray(rows=self._config.array_rows,
                     cols=self._config.array_cols,
                     domain=self._config.domain,
                     noisy=noisy, seed=seed + i,
                     backend=backend)
            for i in range(n_func)
        ]
        self._matchers = [
            AsmCapMatcher(array, self._model, self._matcher_config,
                          seed=seed + 1000 + i)
            for i, array in enumerate(self._arrays)
        ]
        self._htree = HTreeModel(self._config.n_arrays)
        self._buffer = GlobalBuffer()
        self._controller = Controller()
        self._timing = TimingModel(domain=self._config.domain)
        self._loaded_segments = 0
        #: System-level traffic events (reference loads, broadcasts);
        #: the per-array search passes live in each array's ledger.
        self.ledger = CostLedger()

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> ArchConfig:
        return self._config

    @property
    def arrays(self) -> list[CamArray]:
        return self._arrays

    @property
    def timing(self) -> TimingModel:
        return self._timing

    @property
    def n_functional_arrays(self) -> int:
        return len(self._arrays)

    @property
    def loaded_segments(self) -> int:
        return self._loaded_segments

    def merged_ledger(self) -> CostLedger:
        """One deterministic ledger over the whole system: the
        accelerator's traffic events, then every functional array's
        search passes in array order.  Arrays contribute search passes
        only — their per-chunk ``ReferenceLoad`` events cover the same
        rows as the accelerator's system-level load and would double
        count the storage traffic."""
        return CostLedger.merged(
            self.ledger,
            *(CostLedger(array.ledger.search_passes())
              for array in self._arrays),
        )

    # -- data loading ------------------------------------------------------

    def load_reference(self, segments: np.ndarray) -> None:
        """Distribute reference segments across the functional arrays.

        Segments fill array 0's rows first, then array 1, etc.
        """
        segments = np.asarray(segments, dtype=np.uint8)
        if segments.ndim != 2 or segments.shape[1] != self._config.array_cols:
            raise ArchConfigError(
                f"segments shape {segments.shape} does not fit column width "
                f"{self._config.array_cols}"
            )
        capacity = self.n_functional_arrays * self._config.array_rows
        if segments.shape[0] > capacity:
            raise ArchConfigError(
                f"{segments.shape[0]} segments exceed functional capacity "
                f"{capacity}"
            )
        rows = self._config.array_rows
        for index, array in enumerate(self._arrays):
            chunk = segments[index * rows : (index + 1) * rows]
            if chunk.shape[0] == 0:
                break
            array.store(chunk)
        self._loaded_segments = int(segments.shape[0])
        self.ledger.record(ReferenceLoad(
            n_segments=self._loaded_segments,
            n_cells=self._config.array_cols,
        ))

    # -- functional path ------------------------------------------------

    def match_read(self, read: np.ndarray, threshold: int) -> SystemMatch:
        """Broadcast one read to all arrays: the one-row slice of
        :meth:`match_batch` (keyed as read 0)."""
        return self.match_batch(np.asarray(read, dtype=np.uint8)[None, :],
                                threshold)[0]

    def match_batch(self, reads: "list[np.ndarray] | np.ndarray",
                    threshold: int,
                    query_keys: "list[int] | None" = None
                    ) -> list[SystemMatch]:
        """Broadcast a read block to every array in one batched pass.

        The software image of Fig. 4(a)'s steady state: the global
        buffer streams the whole ``(B, N)`` block down the H-tree and
        every array runs its vectorised
        :meth:`~repro.core.matcher.AsmCapMatcher.match_batch` over it —
        ED*, masked HDAC and TASR passes included.  Per-read decisions
        merge across arrays in global segment order; energy sums over
        arrays while array latency takes the max (arrays search in
        parallel behind the H-tree).

        Determinism is anchored on per-read ``query_keys`` (default:
        the read's position in the block), so chunked calls that pass
        global positions compose bit-identically — matches, energy and
        latency alike (the regression tests pin this composition).
        """
        if self._loaded_segments == 0:
            raise ArchConfigError("no reference loaded")
        codes = np.asarray(reads, dtype=np.uint8)
        if codes.ndim != 2:
            raise ArchConfigError(
                f"match_batch needs a (B, N) read block, got shape "
                f"{codes.shape}"
            )
        n_reads = codes.shape[0]
        if n_reads == 0:
            return []
        self.ledger.record(BufferBroadcast(
            n_reads=n_reads, read_bits=self._config.read_bits,
        ))
        outcomes: list[MatchBatchOutcome] = []
        for matcher in self._matchers:
            if matcher.array.plane.n_written == 0:
                break
            outcomes.append(
                matcher.match_batch(codes, threshold,
                                    query_keys=query_keys)
            )
        merged = np.hstack([o.decisions for o in outcomes])
        merged = merged[:, : self._loaded_segments]
        array_energy = np.sum([o.energy_joules for o in outcomes], axis=0)
        array_latency = np.max([o.latency_ns for o in outcomes], axis=0)
        # All arrays issue the same per-read search schedule.
        n_searches = np.max([o.n_searches for o in outcomes], axis=0)

        fetch_latency = self._buffer.fetch_latency_ns()
        broadcast_latency = self._htree.broadcast_latency_ns()
        fetch_energy = self._buffer.fetch_energy_joules(
            self._config.read_bits
        )
        broadcast_energy = self._htree.broadcast_energy_joules(
            self._config.read_bits
        )
        results: list[SystemMatch] = []
        for q in range(n_reads):
            searches = int(n_searches[q])
            results.append(SystemMatch(
                matches=merged[q],
                latency_ns=(fetch_latency + broadcast_latency
                            + self._controller.dispatch_latency_ns(searches)
                            + float(array_latency[q])),
                energy_joules=(fetch_energy + broadcast_energy
                               + self._controller.dispatch_energy_joules(
                                   searches)
                               + float(array_energy[q])),
                n_searches=searches,
            ))
        return results

    # -- analytic path ------------------------------------------------------

    def estimate_read_cost(self, profile: "StrategyProfile | None" = None,
                           *,
                           mismatch_fraction: float =
                           constants.TYPICAL_ED_STAR_MISMATCH_FRACTION
                           ) -> ReadCostEstimate:
        """Closed-form per-read cost at full configured scale.

        Parameters
        ----------
        profile:
            The workload's :class:`~repro.cost.profile.StrategyProfile`
            — the strategy statistics (searches and rotation cycles per
            read); measure it with
            :func:`repro.cost.profile.measure_strategy_profile` (one
            ``match_sweep`` pass per condition) or build one
            analytically.  ``None`` means the strategy-free baseline,
            :meth:`~repro.cost.profile.StrategyProfile.plain` (one ED*
            search, no rotations).
        mismatch_fraction:
            Typical per-row ED* mismatch fraction for the energy model.
        """
        if profile is None:
            profile = StrategyProfile.plain()
        elif not isinstance(profile, StrategyProfile):
            raise ArchConfigError(
                f"estimate_read_cost takes a StrategyProfile, got "
                f"{type(profile).__name__} (build one with "
                f"measure_strategy_profile or StrategyProfile.plain())"
            )
        searches_per_read = profile.searches_per_read
        rotation_cycles_per_read = profile.rotation_cycles_per_read
        if searches_per_read <= 0.0:
            raise ArchConfigError("searches_per_read must be positive")
        cols = self._config.array_cols
        rows = self._config.array_rows
        n_arrays = self._config.n_arrays

        latency = (
            self._buffer.fetch_latency_ns()
            + self._htree.broadcast_latency_ns()
            + self._controller.dispatch_latency_ns(1) * searches_per_read
            + self._timing.read_match_latency_ns(1) * searches_per_read
            + rotation_cycles_per_read * self._timing.shift_cycle_ns
        )

        n_mis = np.full(rows, mismatch_fraction * cols)
        if self._config.domain == "charge":
            array_energy = float(
                search_energy_per_row(n_mis, cols, vdd=self._config.vdd).sum()
            )
        else:
            array_energy = (
                constants.EDAM_ML_PRECHARGE_CAP_F * self._config.vdd**2 * rows
                + constants.EDAM_DISCHARGE_ENERGY_PER_MISMATCH_J
                * float(n_mis.sum())
            )
        array_energy += constants.SA_ENERGY_PER_ROW_J * rows
        array_energy += constants.SHIFT_REGISTER_ENERGY_PER_SEARCH_J
        energy = (
            self._buffer.fetch_energy_joules(self._config.read_bits)
            + self._htree.broadcast_energy_joules(self._config.read_bits)
            + self._controller.dispatch_energy_joules(1) * searches_per_read
            + array_energy * n_arrays * searches_per_read
        )
        return ReadCostEstimate(
            latency_ns=latency,
            energy_joules=energy,
            searches_per_read=searches_per_read,
            reads_per_second=1e9 / latency,
        )
