"""The assembled ASMCap matcher: ED* base search + HDAC + TASR.

:class:`AsmCapMatcher` drives one :class:`~repro.cam.array.CamArray`
through the full decision flow of Sections III-IV:

1. issue the ED* search (``S = 1``);
2. if HDAC is enabled and ``p`` is worth the extra cycle, issue the HD
   search (``S = 0``) and apply Algorithm 1;
3. if TASR is enabled and ``T >= Tl``, issue the rotated ED* searches
   through the shift registers and OR them in (Algorithm 2).

Every analog effect (variation noise, sense-amp behaviour) lives inside
the array; the matcher only sequences searches and combines their
decisions, mirroring the controller's role in Fig. 4(a).  All energy
and latency of the extra searches is accounted in the outcome.

**One flow over a threshold block.**  The flow runs once over a
``(B, N)`` block of reads and a broadcast ``(T, B)`` threshold block:
:meth:`AsmCapMatcher.match_batch` is a ``(1, B)`` block (one threshold
per read), :meth:`AsmCapMatcher.match_sweep` a ``(T, 1)`` block (a
threshold sweep shared by every read), and :meth:`AsmCapMatcher.match`
the one-row slice of a batch.  Each strategy pass is issued once over
the cells it applies to — the HD pass over the cells whose ``p`` clears
the disable cut, the rotated passes over the cells at or above ``Tl``
— so costs are charged exactly where a pass ran.  The reads are
encoded once per flow, as the searchlines load a read once and the
shift registers rotate it in place: the rotated passes (and the base
ED* pass, when the rotations cover every read) take their counts from
one ``mismatch_counts_batch(..., rotations=)`` call, while each pass
still records its own ledger event.  Every draw is keyed
by ``(seed, query_key, pass)``, never by the threshold or the block's
composition, so any batching, sweep or sharding of the same keyed reads
makes bit-identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import constants
from repro.cam.array import CamArray, StoredReference, as_read_codes
from repro.cam.cell import MatchMode
from repro.cam.keyed_noise import fold_key, fold_key_block
from repro.core import policy
from repro.core.hdac import hdac_correct_batch
from repro.core.tasr import DIRECTIONS, rotation_offsets
from repro.errors import CamConfigError
from repro.genome.edits import ErrorModel

#: Pass tags separating the keyed noise streams of one query's searches
#: (shared with the EDAM baseline; streams never mix across arrays
#: because the array seed is folded in first).
PASS_ED_STAR = 0
PASS_HAMMING = 1
#: Rotated passes use ``PASS_ROTATION + offset`` (offset may be
#: negative; the bias keeps the tag non-negative for seeding).
PASS_ROTATION = 512

#: The sweep apply's former name, kept resolvable for the benchmark's
#: probe list; it is the one keyed apply.
hdac_correct_sweep = hdac_correct_batch

#: Domain-separation tag for the keyed HDAC uniform draws.
_HDAC_STREAM_TAG = 0x4DAC


@dataclass(frozen=True)
class MatcherConfig:
    """Strategy configuration for :class:`AsmCapMatcher`.

    Defaults are the paper's evaluated setting: both strategies on,
    alpha = 200, beta = 0.5, NR = 2, gamma = 2e-4.
    """

    enable_hdac: bool = True
    enable_tasr: bool = True
    hdac_alpha: float = constants.HDAC_ALPHA
    hdac_beta: float = constants.HDAC_BETA
    hdac_disable_threshold: float = constants.HDAC_DISABLE_THRESHOLD
    tasr_nr: int = constants.TASR_NR
    tasr_gamma: float = constants.TASR_GAMMA
    tasr_direction: str = "both"

    @classmethod
    def plain(cls) -> "MatcherConfig":
        """ASMCap without HDAC and TASR ('w/o H. and T.' in Fig. 7/8)."""
        return cls(enable_hdac=False, enable_tasr=False)


@dataclass(frozen=True)
class MatchOutcome:
    """Decisions and cost accounting for matching one read.

    Attributes
    ----------
    decisions:
        Final per-row boolean match decisions.
    threshold:
        The threshold ``T`` used.
    n_searches:
        Total search operations issued (base + HD + rotations).
    energy_joules / latency_ns:
        Summed over all issued searches — thin sums over the cost
        ledger's derived views (each pass the matcher sequences is a
        typed event in the array's ledger; see :mod:`repro.cost`).
    hdac_probability:
        The ``p`` used this call (0 when HDAC was skipped).
    tasr_lower_bound:
        The ``Tl`` in force.
    """

    decisions: np.ndarray
    threshold: int
    n_searches: int
    energy_joules: float
    latency_ns: float
    hdac_probability: float
    tasr_lower_bound: int


@dataclass(frozen=True)
class MatchBatchOutcome:
    """Decisions and cost accounting for matching a block of reads.

    Per-query axes come first everywhere; totals are exposed as
    properties so reports can aggregate without re-deriving them.

    Attributes
    ----------
    decisions:
        ``(B, M)`` final per-query, per-row match decisions.
    thresholds:
        ``(B,)`` thresholds used (a scalar input is broadcast).
    n_searches:
        ``(B,)`` search operations issued per query.
    energy_joules / latency_ns:
        ``(B,)`` per-query array costs over all issued searches.
    hdac_probabilities:
        ``(B,)`` the ``p`` each query used (0 where HDAC was skipped).
    tasr_lower_bound:
        The ``Tl`` in force for the batch.
    hdac_mask / tasr_mask:
        ``(B,)`` boolean masks of the queries whose HD pass /
        rotation passes were issued.
    """

    decisions: np.ndarray
    thresholds: np.ndarray
    n_searches: np.ndarray
    energy_joules: np.ndarray
    latency_ns: np.ndarray
    hdac_probabilities: np.ndarray
    tasr_lower_bound: int
    hdac_mask: np.ndarray
    tasr_mask: np.ndarray

    @property
    def n_queries(self) -> int:
        return int(self.decisions.shape[0])

    @property
    def total_searches(self) -> int:
        return int(self.n_searches.sum())

    @property
    def total_energy_joules(self) -> float:
        return float(self.energy_joules.sum())

    @property
    def total_latency_ns(self) -> float:
        return float(self.latency_ns.sum())


@dataclass(frozen=True)
class MatchSweepOutcome:
    """Decisions and cost accounting for a block x threshold sweep.

    The threshold axis leads; slice ``t`` carries exactly what a
    :class:`MatchBatchOutcome` at ``thresholds[t]`` would have carried.

    Attributes
    ----------
    decisions:
        ``(T, B, M)`` final decisions (threshold, query, stored row).
    thresholds:
        ``(T,)`` the sweep vector.
    n_searches:
        ``(T, B)`` search operations a scalar path would have issued
        per (threshold, query) cell.
    energy_joules / latency_ns:
        ``(T, B)`` the equivalent scalar path's per-cell array costs
        (what Fig. 7's Monte-Carlo accounting charges); the sweep
        engine *computed* far less — see
        :attr:`repro.cam.array.SearchStats`.
    hdac_probabilities:
        ``(T,)`` the ``p`` in force per threshold (0 where HDAC was
        skipped).
    tasr_lower_bound:
        The ``Tl`` in force for the sweep.
    hdac_mask / tasr_mask:
        ``(T,)`` thresholds whose HD pass / rotation passes applied
        (eligibility is per threshold — every query of a sweep shares
        its threshold).
    """

    decisions: np.ndarray
    thresholds: np.ndarray
    n_searches: np.ndarray
    energy_joules: np.ndarray
    latency_ns: np.ndarray
    hdac_probabilities: np.ndarray
    tasr_lower_bound: int
    hdac_mask: np.ndarray
    tasr_mask: np.ndarray

    @property
    def n_thresholds(self) -> int:
        return int(self.decisions.shape[0])

    @property
    def n_queries(self) -> int:
        return int(self.decisions.shape[1])

    def at_threshold(self, threshold: int) -> np.ndarray:
        """The ``(B, M)`` decision slice for one sweep threshold."""
        index = np.flatnonzero(self.thresholds == int(threshold))
        if index.size == 0:
            raise CamConfigError(
                f"threshold {threshold} is not part of this sweep"
            )
        return self.decisions[int(index[0])]


def query_key_vector(query_keys: "Sequence[int] | None",
                     n_queries: int) -> np.ndarray:
    """Per-read determinism keys as int64; default ``0..B-1``."""
    if query_keys is None:
        return np.arange(n_queries, dtype=np.int64)
    if len(query_keys) != n_queries:
        raise CamConfigError(
            f"{len(query_keys)} query keys for {n_queries} reads"
        )
    return np.asarray([int(k) for k in query_keys], dtype=np.int64)


def pass_keys(keys: np.ndarray, tag: int) -> np.ndarray:
    """``(B, 2)`` array noise-key rows ``(query_key, tag)`` for one pass."""
    return np.column_stack((keys, np.full(keys.shape[0], tag,
                                          dtype=np.int64)))


def read_block(reads: np.ndarray, caller: str) -> np.ndarray:
    """Coerce a ``(B, N)`` uint8 read block, naming *caller* on error."""
    reads = as_read_codes(reads)
    if reads.ndim != 2:
        raise CamConfigError(
            f"{caller} needs a (B, N) block, got shape {reads.shape}"
        )
    return reads


@dataclass(frozen=True)
class _FlowResult:
    """The flow's outputs over a ``(T, B)`` block of (threshold, read)
    cells; ``probabilities`` and the masks keep the threshold block's
    broadcast shape."""

    decisions: np.ndarray
    n_searches: np.ndarray
    energy: np.ndarray
    latency: np.ndarray
    probabilities: np.ndarray
    hdac_mask: np.ndarray
    tasr_mask: np.ndarray
    lower_bound: int


class AsmCapMatcher:
    """Full ASMCap matching flow over one CAM array.

    Parameters
    ----------
    array:
        The (charge-domain) CAM array holding reference segments.
    error_model:
        The workload's error rates — HDAC's ``p`` and TASR's ``Tl`` are
        functions of these (the paper pre-processes them off-line).
    config:
        Strategy configuration.
    seed:
        Seed folded into HDAC's keyed uniform draws.
    """

    def __init__(self, array: CamArray, error_model: ErrorModel,
                 config: "MatcherConfig | None" = None, seed: int = 0):
        self._array = array
        self._model = error_model
        self._config = config or MatcherConfig()
        self._seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._hdac_prefix = fold_key((self._seed, _HDAC_STREAM_TAG))
        if self._config.tasr_direction not in DIRECTIONS:
            raise CamConfigError(
                f"invalid tasr_direction {self._config.tasr_direction!r}"
            )

    @classmethod
    def over_stored(cls, stored: StoredReference, error_model: ErrorModel,
                    config: "MatcherConfig | None" = None,
                    *,
                    domain: str = "charge",
                    noisy: bool = True,
                    seed: int = 0,
                    ledger_compaction: "int | None" = None,
                    backend: "str | None" = None
                    ) -> "AsmCapMatcher":
        """A matcher whose array *borrows* a shared stored reference.

        The session-construction seam of the multi-session front end
        (:mod:`repro.service.frontend`): the expensive encode/store
        work happened once, in :meth:`StoredReference.encode`, and each
        call here builds only the cheap per-session state — a
        :class:`~repro.cam.array.CamArray` with its own *seed* (keyed
        noise prefix, cost ledger) plus the matcher's own HDAC stream.
        A matcher built this way is bit-identical to one over a
        privately-stored array with the same segments and seeds — that
        equivalence is what makes a frontend session reproduce a
        standalone service exactly.
        """
        array = CamArray(domain=domain, noisy=noisy, seed=seed,
                         ledger_compaction=ledger_compaction,
                         backend=backend, stored=stored)
        return cls(array, error_model, config, seed=seed)

    @property
    def array(self) -> CamArray:
        return self._array

    @property
    def config(self) -> MatcherConfig:
        return self._config

    @property
    def error_model(self) -> ErrorModel:
        return self._model

    def hdac_probability(self, threshold: int) -> float:
        """The off-line pre-processed ``p`` for this workload."""
        return policy.hdac_probability_for_model(
            self._model, threshold,
            alpha=self._config.hdac_alpha, beta=self._config.hdac_beta,
        )

    def tasr_lower_bound(self) -> int:
        """The off-line pre-processed ``Tl`` for this workload."""
        return policy.tasr_lower_bound_for_model(
            self._model, self._array.cols, gamma=self._config.tasr_gamma,
        )

    def match(self, read: np.ndarray, threshold: int,
              query_key: "int | None" = None) -> MatchOutcome:
        """Match one read against all stored rows at threshold ``T``.

        The one-row slice of :meth:`match_batch`: keyed by
        ``query_key`` (default 0, the read's index in a one-read
        block), so the outcome equals row ``q`` of any
        :meth:`match_batch` call that keys that read ``query_key``.
        """
        read = as_read_codes(read)
        batch = self.match_batch(
            read[None, :], threshold,
            query_keys=None if query_key is None else [query_key],
        )
        return MatchOutcome(
            decisions=batch.decisions[0],
            threshold=int(batch.thresholds[0]),
            n_searches=int(batch.n_searches[0]),
            energy_joules=float(batch.energy_joules[0]),
            latency_ns=float(batch.latency_ns[0]),
            hdac_probability=float(batch.hdac_probabilities[0]),
            tasr_lower_bound=batch.tasr_lower_bound,
        )

    def match_batch(self, reads: np.ndarray,
                    threshold: "int | np.ndarray",
                    query_keys: "Sequence[int] | None" = None
                    ) -> MatchBatchOutcome:
        """Match a ``(B, N)`` block of reads: the ``(1, B)`` flow.

        1. one batched ED* search over the whole block;
        2. one batched HD search over the queries whose ``p`` clears
           the HDAC disable threshold (Algorithm 1);
        3. per TASR offset, one batched rotated ED* search over the
           queries with ``T >= Tl`` (Algorithm 2).

        Parameters
        ----------
        reads:
            ``(B, N)`` uint8 read codes.
        threshold:
            Scalar or ``(B,)`` per-query thresholds.
        query_keys:
            Per-query determinism keys; defaults to ``0..B-1``.  Use
            globally unique keys (e.g. the read's position in the full
            workload) so chunked and sharded executions stay
            bit-identical.
        """
        reads = read_block(reads, "match_batch")
        thresholds = np.broadcast_to(
            np.asarray(threshold, dtype=int), (reads.shape[0],)
        ).copy()
        flow = self._flow(reads, thresholds[None, :], query_keys,
                          sweep=False)
        return MatchBatchOutcome(
            decisions=flow.decisions[0], thresholds=thresholds,
            n_searches=flow.n_searches[0], energy_joules=flow.energy[0],
            latency_ns=flow.latency[0],
            hdac_probabilities=flow.probabilities[0],
            tasr_lower_bound=flow.lower_bound,
            hdac_mask=flow.hdac_mask[0], tasr_mask=flow.tasr_mask[0],
        )

    def match_sweep(self, reads: np.ndarray,
                    thresholds: "Sequence[int] | np.ndarray",
                    query_keys: "Sequence[int] | None" = None
                    ) -> MatchSweepOutcome:
        """Match a ``(B, N)`` block against a threshold sweep: the
        ``(T, 1)`` flow.

        The engine behind Fig. 7's curves: every random draw is keyed
        by ``(query_key, pass)`` — never by the threshold — so each
        pass computes its mismatch counts and noisy matchline voltages
        **once** and applies the threshold vector as vectorised
        sense-amp reference comparisons:

        1. one ED* count + noise pass, ``T`` reference comparisons;
        2. one HD pass shared by every threshold whose ``p`` clears the
           HDAC disable cut, with Algorithm 1 applied per threshold on
           the per-query keyed streams;
        3. one rotated ED* pass per TASR offset shared by every
           threshold at or above ``Tl`` (Algorithm 2).

        A sweep therefore issues ``2 + 2 * NR`` array passes instead of
        up to ``T * (2 + 2 * NR)``, while slice ``t`` stays
        bit-identical to ``match_batch(reads, thresholds[t],
        query_keys)``.  ``thresholds`` is the ``(T,)`` sweep vector;
        ``query_keys`` defaults to ``0..B-1``.
        """
        reads = read_block(reads, "match_sweep")
        thresholds = np.asarray(thresholds, dtype=int)
        if thresholds.ndim != 1 or thresholds.shape[0] == 0:
            raise CamConfigError(
                f"thresholds must be a non-empty 1-D sweep vector, got "
                f"shape {thresholds.shape}"
            )
        flow = self._flow(reads, thresholds[:, None], query_keys,
                          sweep=True)
        return MatchSweepOutcome(
            decisions=flow.decisions, thresholds=thresholds,
            n_searches=flow.n_searches, energy_joules=flow.energy,
            latency_ns=flow.latency,
            hdac_probabilities=flow.probabilities[:, 0],
            tasr_lower_bound=flow.lower_bound,
            hdac_mask=flow.hdac_mask[:, 0], tasr_mask=flow.tasr_mask[:, 0],
        )

    def _flow(self, reads: np.ndarray, block: np.ndarray,
              query_keys: "Sequence[int] | None",
              sweep: bool) -> _FlowResult:
        """ED* -> HDAC -> TASR over a ``(1, B)`` or ``(T, 1)`` block.

        Each pass covers the cells its mask selects: rows (thresholds)
        and columns (reads) of the ``(T, B)`` grid.  A batch pass
        searches the selected reads at their own thresholds
        (:meth:`~repro.cam.array.CamArray.search_batch`), a sweep pass
        every read at the selected thresholds
        (:meth:`~repro.cam.array.CamArray.search_sweep`); its
        decisions and costs fold into exactly those cells.
        """
        array, config = self._array, self._config
        n_queries = reads.shape[0]
        keys = query_key_vector(query_keys, n_queries)
        grid = (block.shape[0], n_queries)
        n_searches = np.zeros(grid, dtype=int)
        energy = np.zeros(grid)
        latency = np.zeros(grid)

        def cells_of(mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            full = np.broadcast_to(mask, grid)
            return (np.flatnonzero(full.any(axis=1)),
                    np.flatnonzero(full.any(axis=0)))

        def issue(rows: np.ndarray, cols: np.ndarray, mode: MatchMode,
                  tag: int, counts: "np.ndarray | None" = None,
                  rotation: int = 0):
            """One array pass over the selected cells (``counts``, when
            given, are the pass's counts for exactly those reads);
            charges its costs there and returns ``(cells, result)``."""
            every = cols.shape[0] == n_queries
            queries = reads if every else reads[cols]
            kwargs = {"noise_keys": pass_keys(keys[cols], tag),
                      "precomputed_counts": counts, "rotation": rotation}
            if sweep:
                result = array.search_sweep(queries, block[rows, 0], mode,
                                            **kwargs)
            else:
                result = array.search_batch(queries, block[0, cols], mode,
                                            **kwargs)
            # A (1, B) or (T, 1) block always selects whole threshold
            # rows (batch) or whole read columns (sweep), so at most one
            # axis needs an index array; whole axes stay slices (views).
            cells = (slice(None) if rows.shape[0] == grid[0] else rows,
                     slice(None) if every else cols)
            n_searches[cells] += 1
            energy[cells] += result.energy_per_query_joules
            latency[cells] += array.search_time_ns
            return cells, result

        def block_matches(result) -> np.ndarray:
            """A pass's decisions as a ``(T', B', M)`` block."""
            return result.matches if sweep else result.matches[None]

        # HDAC and TASR eligibility are known before any search (``p``
        # and ``Tl`` are off-line functions of the threshold), so every
        # pass's counts come from as few encodes as possible: one
        # rotations call yields all TASR passes (plus the base ED* pass
        # when they cover every read), one dual call the ED*/HD pair.
        p_block = np.zeros(block.shape)
        hdac_mask = np.zeros(block.shape, dtype=bool)
        if config.enable_hdac:
            for t in np.unique(block):
                p_block[block == t] = self.hdac_probability(int(t))
            hdac_mask = p_block >= config.hdac_disable_threshold
        hd_rows, hd_cols = cells_of(hdac_mask)
        lower_bound = self.tasr_lower_bound()
        tasr_mask = np.zeros(block.shape, dtype=bool)
        if config.enable_tasr and n_queries:
            tasr_mask = block >= lower_bound
        tasr_rows, tasr_cols = cells_of(tasr_mask)
        offsets = rotation_offsets(config.tasr_nr, config.tasr_direction) \
            if tasr_rows.shape[0] else ()
        ed_counts = hd_counts = None
        rotated = ()
        if offsets and tasr_cols.shape[0] == n_queries:
            ed_counts, *rotated = array.mismatch_counts_batch(
                reads, MatchMode.ED_STAR, rotations=(0,) + offsets)
        elif offsets:
            rotated = array.mismatch_counts_batch(
                reads[tasr_cols], MatchMode.ED_STAR, rotations=offsets)
        if n_queries and hd_cols.shape[0] == n_queries:
            if ed_counts is None:
                ed_counts, hd_counts = array.mismatch_counts_batch_dual(reads)
            else:
                hd_counts = array.mismatch_counts_batch(reads,
                                                        MatchMode.HAMMING)

        # Each pass's result stays referenced until the next pass has
        # run (``base`` to the end).  Freeing a pass's (B, M) blocks
        # before the next pass allocates its own lets the C allocator
        # trim the heap and fault it back in: ~5x the page faults per
        # batch.
        _, base = issue(np.arange(grid[0]), np.arange(n_queries),
                        MatchMode.ED_STAR, PASS_ED_STAR, ed_counts)
        decisions = block_matches(base)

        # --- HDAC (Algorithm 1), over the cells worth the cycle -------
        if hd_rows.shape[0]:
            cells, hd = issue(hd_rows, hd_cols, MatchMode.HAMMING,
                              PASS_HAMMING, hd_counts)
            decisions[cells] = hdac_correct_batch(
                decisions[cells], block_matches(hd),
                p_block[cells],
                fold_key_block(self._hdac_prefix, keys[hd_cols]),
            )

        # --- TASR (Algorithm 2), over the cells above Tl --------------
        for offset, counts in zip(offsets, rotated):
            cells, result = issue(tasr_rows, tasr_cols, MatchMode.ED_STAR,
                                  PASS_ROTATION + offset, counts,
                                  rotation=offset)
            decisions[cells] |= block_matches(result)

        return _FlowResult(
            decisions=decisions, n_searches=n_searches, energy=energy,
            latency=latency,
            probabilities=np.where(hdac_mask, p_block, 0.0),
            hdac_mask=hdac_mask, tasr_mask=tasr_mask,
            lower_bound=lower_bound,
        )
