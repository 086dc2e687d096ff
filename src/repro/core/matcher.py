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

**One flow over a threshold vector.**  The flow runs once over a
``(B, N)`` block of reads and a ``(T,)`` threshold vector, as the sense
amplifiers compare every matchline against one ``V_ref`` per search:
:meth:`AsmCapMatcher.match_batch` is ``T = 1`` (one integer threshold
for the whole batch), :meth:`AsmCapMatcher.match_sweep` the vector
itself, and :meth:`AsmCapMatcher.match` the one-row slice of a batch.
HDAC and TASR eligibility depend on the threshold alone, so every pass
covers every read: the HD pass runs at the thresholds whose ``p``
clears the disable cut, the rotated passes at those at or above
``Tl``, and costs are charged exactly where a pass ran.  The reads are
encoded once per flow, as the searchlines load a read once and the
shift registers rotate it in place: the base ED* pass and the rotated
passes take their counts from one ``mismatch_counts_batch(...,
rotations=)`` call.  A batch issues its passes as one pass block (one
``search_batch``: one decide, one energy gather), while each pass
still records its own ledger event.  Every draw is keyed by ``(seed,
query_key, pass)``, never by the threshold or the block's
composition, so any batching, sweep or micro-batching of the same
keyed reads makes bit-identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro import constants
from repro.cam.array import CamArray, StoredReference, as_read_codes
from repro.cam.cell import MatchMode
from repro.cam.keyed_noise import fold_key, fold_key_block
from repro.core import policy
from repro.core.hdac import hdac_correct_batch
from repro.core.tasr import DIRECTIONS, rotation_offsets
from repro.errors import CamConfigError, ThresholdError
from repro.genome.edits import ErrorModel
from repro.knobs import check_integer, check_threshold, check_thresholds

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

    def __eq__(self, other: object) -> bool:
        """Equal values, decisions compared element by element."""
        if not isinstance(other, MatchOutcome):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name),
                                  getattr(other, f.name))
                   for f in fields(self))


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
        ``(B,)`` the batch's one threshold, broadcast per query.
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
        threshold = check_integer("threshold", threshold, ThresholdError)
        index = np.flatnonzero(self.thresholds == threshold)
        if index.size == 0:
            raise CamConfigError(
                f"threshold {threshold} is not part of this sweep"
            )
        return self.decisions[int(index[0])]


def query_key_vector(query_keys: "Sequence[int] | None",
                     n_queries: int) -> np.ndarray:
    """Per-read determinism keys as int64; default ``0..B-1``.

    A non-integer key raises :class:`~repro.errors.CamConfigError`:
    truncating keys ``0.5`` and ``0.9`` would share one noise stream.
    """
    if query_keys is None:
        return np.arange(n_queries, dtype=np.int64)
    if len(query_keys) != n_queries:
        raise CamConfigError(
            f"{len(query_keys)} query keys for {n_queries} reads"
        )
    if isinstance(query_keys, np.ndarray) and query_keys.ndim == 1 \
            and np.issubdtype(query_keys.dtype, np.signedinteger):
        return query_keys.astype(np.int64, copy=False)
    return np.asarray([check_integer("query key", k) for k in query_keys],
                      dtype=np.int64)


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
    """The flow's outputs: ``(T, B)`` (threshold, read) cells for the
    decisions and costs, ``(T,)`` per threshold for ``probabilities``
    and the masks."""

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
        self._seed = check_integer("seed", seed) & 0xFFFFFFFFFFFFFFFF
        self._hdac_prefix = fold_key((self._seed, _HDAC_STREAM_TAG))
        if self._config.tasr_direction not in DIRECTIONS:
            raise CamConfigError(
                f"invalid tasr_direction {self._config.tasr_direction!r}"
            )
        self._offsets = rotation_offsets(self._config.tasr_nr,
                                         self._config.tasr_direction)

    @classmethod
    def over_stored(cls, stored: StoredReference, error_model: ErrorModel,
                    config: "MatcherConfig | None" = None,
                    *,
                    domain: str = "charge",
                    noisy: bool = True,
                    seed: int = 0,
                    ledger_compaction: "int | None" = None
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
                         stored=stored)
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

    def match_batch(self, reads: np.ndarray, threshold: int,
                    query_keys: "Sequence[int] | None" = None
                    ) -> MatchBatchOutcome:
        """Match a ``(B, N)`` block of reads: the ``T = 1`` flow.

        1. one batched ED* search over the whole block;
        2. one batched HD search if ``p`` clears the HDAC disable
           threshold (Algorithm 1);
        3. per TASR offset, one batched rotated ED* search if
           ``T >= Tl`` (Algorithm 2).

        Parameters
        ----------
        reads:
            ``(B, N)`` uint8 read codes.
        threshold:
            The batch's one integer threshold; a vector raises
            :class:`~repro.errors.ThresholdError` (a threshold vector
            is a sweep: :meth:`match_sweep`).
        query_keys:
            Per-query determinism keys; defaults to ``0..B-1``.  Use
            globally unique keys (e.g. the read's position in the full
            workload) so chunked and streamed executions stay
            bit-identical.
        """
        reads = read_block(reads, "match_batch")
        threshold = check_threshold(threshold, "match_sweep")
        flow = self._flow(reads, np.array([threshold]), query_keys,
                          sweep=False)
        n_queries = reads.shape[0]
        return MatchBatchOutcome(
            decisions=flow.decisions[0],
            thresholds=np.full(n_queries, threshold),
            n_searches=flow.n_searches[0], energy_joules=flow.energy[0],
            latency_ns=flow.latency[0],
            hdac_probabilities=np.full(n_queries, flow.probabilities[0]),
            tasr_lower_bound=flow.lower_bound,
            hdac_mask=np.full(n_queries, flow.hdac_mask[0]),
            tasr_mask=np.full(n_queries, flow.tasr_mask[0]),
        )

    def match_sweep(self, reads: np.ndarray,
                    thresholds: "Sequence[int] | np.ndarray",
                    query_keys: "Sequence[int] | None" = None
                    ) -> MatchSweepOutcome:
        """Match a ``(B, N)`` block against a ``(T,)`` threshold sweep.

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
        query_keys)``.  ``thresholds`` is a non-empty 1-D integer
        vector; ``query_keys`` defaults to ``0..B-1``.
        """
        reads = read_block(reads, "match_sweep")
        thresholds = check_thresholds(thresholds)
        flow = self._flow(reads, thresholds, query_keys, sweep=True)
        return MatchSweepOutcome(
            decisions=flow.decisions, thresholds=thresholds,
            n_searches=flow.n_searches, energy_joules=flow.energy,
            latency_ns=flow.latency,
            hdac_probabilities=flow.probabilities,
            tasr_lower_bound=flow.lower_bound,
            hdac_mask=flow.hdac_mask, tasr_mask=flow.tasr_mask,
        )

    def _flow(self, reads: np.ndarray, thresholds: np.ndarray,
              query_keys: "Sequence[int] | None",
              sweep: bool) -> _FlowResult:
        """ED* -> HDAC -> TASR over a ``(T,)`` threshold vector.

        HDAC and TASR eligibility are functions of the threshold alone
        (``p`` and ``Tl`` are off-line), so every pass covers every read
        and selects only thresholds: the HD pass those whose ``p``
        clears the disable cut, the rotated passes those at or above
        ``Tl``.  A batch (``T = 1``) issues its passes as one pass block
        (:meth:`~repro.cam.array.CamArray.search_batch`: one decide,
        one energy gather, one ledger event per pass); a sweep issues
        one :meth:`~repro.cam.array.CamArray.search_sweep` per pass over
        the thresholds it selects.  Decisions and costs fold into
        exactly the ``(threshold, read)`` cells a pass ran for.
        """
        array, config = self._array, self._config
        n_queries = reads.shape[0]
        keys = query_key_vector(query_keys, n_queries)
        grid = (thresholds.shape[0], n_queries)
        n_searches = np.zeros(grid, dtype=int)
        energy = np.zeros(grid)
        latency = np.zeros(grid)

        p = np.zeros(thresholds.shape)
        hdac_mask = np.zeros(thresholds.shape, dtype=bool)
        if config.enable_hdac:
            p = np.array([self.hdac_probability(t)
                          for t in thresholds.tolist()])
            hdac_mask = p >= config.hdac_disable_threshold
        lower_bound = self.tasr_lower_bound()
        tasr_mask = np.zeros(thresholds.shape, dtype=bool)
        if config.enable_tasr and n_queries:
            tasr_mask = thresholds >= lower_bound
        offsets = self._offsets if tasr_mask.any() else ()

        # The reads are encoded as few times as possible: one rotations
        # call yields the base ED* pass and every TASR pass, one dual
        # call the ED*/HD pair.
        ed_counts = hd_counts = block_counts = None
        rotated = ()
        if offsets:
            block_counts = array.mismatch_counts_batch(
                reads, MatchMode.ED_STAR, rotations=(0,) + offsets)
            ed_counts, *rotated = block_counts
        if n_queries and hdac_mask.any():
            if ed_counts is None:
                ed_counts, hd_counts = array.mismatch_counts_batch_dual(reads)
            else:
                hd_counts = array.mismatch_counts_batch(reads,
                                                        MatchMode.HAMMING)

        # ED* -> HDAC -> TASR, each pass as (thresholds it runs at,
        # mode, tag, counts, rotation).
        passes = [(np.ones(thresholds.shape, dtype=bool), MatchMode.ED_STAR,
                   PASS_ED_STAR, ed_counts, 0)]
        if hd_counts is not None:
            passes.append((hdac_mask, MatchMode.HAMMING, PASS_HAMMING,
                           hd_counts, 0))
        passes.extend((tasr_mask, MatchMode.ED_STAR,
                       PASS_ROTATION + offset, counts, offset)
                      for offset, counts in zip(offsets, rotated,
                                                  strict=True))

        def sweep_pass(at, mode, tag, counts, rotation):
            result = array.search_sweep(
                reads, thresholds[at], mode,
                noise_keys=pass_keys(keys, tag),
                precomputed_counts=counts, rotation=rotation)
            return result.matches, result.energy_per_query_joules

        if sweep:
            # Per-pass results are produced lazily, so each stays
            # referenced until the next pass has run: freeing a pass's
            # blocks before the next allocates its own lets the C
            # allocator trim the heap and fault it back in.
            results = (sweep_pass(*pass_) for pass_ in passes)
        else:
            modes, tags, counts, rotations = zip(*(
                pass_[1:] for pass_ in passes), strict=True)
            search = array.search_batch(
                reads, thresholds[0], modes,
                noise_keys=[pass_keys(keys, tag) for tag in tags],
                precomputed_counts=(block_counts if hd_counts is None
                                    else counts),
                rotation=rotations)
            results = zip(search.matches[:, None],
                          search.energy_per_query_joules, strict=True)

        # Costs are charged and decisions combined in pass order, so
        # every float accumulation runs as in a pass-by-pass flow.
        decisions = None
        for (at, mode, *_), (matches, pass_energy) \
                in zip(passes, results, strict=True):
            n_searches[at] += 1
            energy[at] += pass_energy
            latency[at] += array.search_time_ns
            if decisions is None:
                decisions = matches.copy()
            elif mode is MatchMode.HAMMING:
                # --- HDAC (Algorithm 1), at the thresholds worth the cycle
                decisions[at] = hdac_correct_batch(
                    decisions[at], matches, p[at][:, None],
                    fold_key_block(self._hdac_prefix, keys),
                )
            else:
                # --- TASR (Algorithm 2), at the thresholds above Tl
                decisions[at] |= matches

        return _FlowResult(
            decisions=decisions, n_searches=n_searches, energy=energy,
            latency=latency,
            probabilities=np.where(hdac_mask, p, 0.0),
            hdac_mask=hdac_mask, tasr_mask=tasr_mask,
            lower_bound=lower_bound,
        )
