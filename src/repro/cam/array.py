"""CAM array model: M x N cells, write and search operations (Fig. 4(b)).

:class:`CamArray` ties the pieces together:

* a :class:`StoredReference` holding the reference segments;
* vectorised cell logic (the ``O_L/O_C/O_R`` planes of
  :mod:`repro.distance.ed_star` — bit-exact with
  :class:`~repro.cam.cell.AsmCapCell`);
* a matchline transfer function (charge or current domain);
* a variation model that perturbs the analog voltage;
* a bank of sense amplifiers that turn voltages into match decisions;
* rotated passes for TASR, charged their shift-register cycles;
* a cost ledger recording every physical pass as a typed event
  (:mod:`repro.cost`); per-search energy/latency are derived views
  over those events.

The same class models both ASMCap (``domain="charge"``) and EDAM
(``domain="current"``); the EDAM baseline wraps it with EDAM's
parameters.  A *search* compares a block of reads against every stored
row in parallel.

**Shared stored references.**  The expensive part of bringing an array
up is storing the reference and encoding it for the count kernel
(:mod:`repro.kernels`); everything else an array owns (its
noise-key prefix, the cost ledger) is cheap per-session state.
:class:`StoredReference` splits the two: it holds the stored segments
plus their encoding (built in one pass) as an
immutable, thread-safe value that **many arrays can share** —
``CamArray(stored=ref)`` borrows the reference without re-encoding or
re-storing it, while keeping its own seed, noise prefix and ledger.
This is what lets a multi-session service front end
(:mod:`repro.service.frontend`) encode the reference exactly once and
serve N concurrent sessions over it.

**One keyed search pass.**  Every search is one pass over a ``(B, N)``
block of reads and a ``(T,)`` threshold vector — the software analogue
of Fig. 4(a)'s global buffer streaming reads into the array
back-to-back while the sense amplifiers hold one ``V_ref`` per
threshold.  :meth:`CamArray.search_batch` is ``T = 1`` (one integer
threshold for the whole batch), :meth:`CamArray.search_sweep` the
vector itself (a threshold sweep shared by every query); a single
read is a one-row block.  Every draw is keyed by
``(seed, query_key, pass)``: query ``q``'s variation noise comes from
a counter-based stream seeded by ``(array_seed, stream_tag) +
noise_keys[q]`` (default ``(q,)``, the read's index in the block), so
two executions that issue the same keyed searches — in any order,
batched or swept, on one thread or a pool of workers — see
bit-identical noise and make bit-identical decisions.  A batch search
may also carry ``P`` back-to-back passes over the same reads (a *pass
block*: the base ED* pass and its TASR rotations, or the ED*/HD pair),
decided as one ``(P·B, M)`` block and recorded as ``P`` events.

**Noise is drawn only where it can decide.**  A keyed normal is
bounded, ``|z| <= NORMAL_BOUND`` (:mod:`repro.cam.keyed_noise`), so a
row whose count sits at level ``n`` has its voltage inside
``V_ideal(n) ± NORMAL_BOUND·σ(n)`` (plus a float-rounding margin).
Each pass builds that ``(N+1)``-level table once, decides both band
ends through the sense amplifiers for every threshold of the pass, and
so classifies every level as always-match, never-match or *in band*.
Out-of-band (query, row) pairs are decided at their level's ideal
voltage, looked up by digital count; only in-band pairs (in band for
*any* threshold of a sweep) draw their keyed normals, by
stream position, and are decided through the same comparator.  The
decisions are those of the dense draw, bit for bit; the dense voltages
themselves (:attr:`BatchSearchResult.v_ml`) are materialised lazily,
only when read.  DESIGN.md ("Determinism: keyed noise and exact
noise-band pruning") carries the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from repro import constants
from repro.cam.cell import MatchMode
from repro.cam.matchline import ChargeDomainMatchline, CurrentDomainMatchline
from repro.cam.sense_amp import SenseAmplifier
from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation
from repro.cam.keyed_noise import (
    NORMAL_BOUND,
    fold_key,
    fold_key_block,
    standard_normals,
)
from repro.cost.events import (
    EdStarPass,
    HdacPass,
    ReferenceLoad,
    SearchPassEvent,
    TasrRotationPass,
)
from repro.cost.ledger import CostLedger
from repro.cost.views import SearchStats, search_stats
from repro.errors import CamConfigError, ThresholdError
from repro.genome import alphabet
from repro.kernels import (
    EncodedReference,
    counts_batch,
    counts_batch_dual,
    encode_reference,
)
from repro.knobs import (
    check_count,
    check_integer,
    check_threshold,
    check_thresholds,
    validate_service_knobs,
)

_DOMAINS = ("charge", "current")

#: Domain-separation tag for keyed noise streams (arbitrary constant;
#: keeps keyed draws disjoint from any other derived stream).
_NOISE_STREAM_TAG = 0x5EED

#: Relative float-rounding margin widening each level's noise band: it
#: covers the few ulps of rounding in ``z·σ``, in ``V_ideal + z·σ`` and
#: in evaluating the bound itself, with many orders to spare.
_BAND_MARGIN = 1e-9


def as_segments_matrix(segments: np.ndarray) -> np.ndarray:
    """Validate and coerce a reference-segment matrix, exactly.

    The one definition of "a storable reference" shared by every layer
    that accepts raw segments (arrays, pipelines, services, the
    frontend): a non-empty 2-D ``(rows, N)`` integer matrix of 2-bit
    codes (0..3), returned as uint8.  A non-integer dtype or a code
    outside 0..3 raises :class:`~repro.errors.CamConfigError` instead
    of being truncated or wrapped.
    """
    try:
        segments = np.asarray(segments)
    except (TypeError, ValueError) as exc:
        raise CamConfigError(
            f"segments must be a (rows, N) code matrix: {exc}"
        ) from exc
    if segments.ndim != 2 or segments.shape[0] == 0 \
            or segments.shape[1] == 0:
        raise CamConfigError(
            f"segments must be a non-empty (rows, N) matrix, got "
            f"shape {segments.shape}"
        )
    if not np.issubdtype(segments.dtype, np.integer):
        raise CamConfigError(
            f"segment codes must be integers, got dtype {segments.dtype}"
        )
    low, high = int(segments.min()), int(segments.max())
    if low < 0 or high >= alphabet.ALPHABET_SIZE:
        raise CamConfigError(
            f"segment codes must be 2-bit (0..3), got values in "
            f"[{low}, {high}]"
        )
    return segments.astype(np.uint8, copy=False)


def as_read_codes(reads) -> np.ndarray:
    """Coerce read codes (one read or a block) to uint8, exactly.

    The one definition of "read codes" shared by every layer that
    accepts reads (arrays, matchers, pipelines, service sessions): an
    integer array whose values fit 0..255.  Codes 0..3 are bases; 4..255
    take the ambiguity fallback.  A non-integer dtype or a value outside
    0..255 raises :class:`~repro.errors.CamConfigError` instead of being
    truncated or wrapped.  A uint8 input is returned without a value
    scan.
    """
    reads = np.asarray(reads)
    if reads.dtype == np.uint8:
        return reads
    if reads.size == 0:
        return reads.astype(np.uint8)
    if not np.issubdtype(reads.dtype, np.integer):
        raise CamConfigError(
            f"read codes must be integers, got dtype {reads.dtype}"
        )
    low, high = int(reads.min()), int(reads.max())
    if low < 0 or high > 255:
        raise CamConfigError(
            f"read codes must be in 0..255, got values in "
            f"[{low}, {high}]"
        )
    return reads.astype(np.uint8)


@dataclass(frozen=True)
class BatchSearchResult:
    """Everything one batched parallel search produced.

    ``B`` reads stream through the array back-to-back, so per-query
    axes come first.

    Attributes
    ----------
    matches:
        ``(B, M)`` boolean decisions (query q, stored row i).
    mismatch_counts:
        ``(B, M)`` digital mismatch counts (ED* or HD).
    v_ml:
        ``(B, M)`` noisy analog matchline voltages.  The decisions never
        need them densely, so they are drawn on first read (a lazy,
        cached property).
    thresholds:
        ``(B,)`` the batch's one threshold, broadcast per query.
    mode:
        ED*/HD mode of the whole batch (a tuple, one per pass, for a
        pass block; see :meth:`CamArray.search_batch`).
    energy_joules / latency_ns:
        Totals over the batch.
    energy_per_query_joules:
        ``(B,)`` per-query array energies.
    """

    matches: np.ndarray
    mismatch_counts: np.ndarray
    thresholds: np.ndarray
    mode: MatchMode
    energy_joules: float
    latency_ns: float
    energy_per_query_joules: np.ndarray
    _voltages: "Callable[[], np.ndarray]" = field(repr=False, compare=False)

    @cached_property
    def v_ml(self) -> np.ndarray:
        return self._voltages()

    @property
    def n_queries(self) -> int:
        return int(self.matches.shape[0])



@dataclass(frozen=True)
class SweepSearchResult:
    """One search pass evaluated against a whole threshold sweep.

    The digital mismatch counts and the keyed variation noise of a
    search depend only on the query (and its noise key), never on the
    threshold — so a ``T``-point threshold sweep needs one count pass
    and one noise draw, with only the sense-amp references varying.
    Slice ``t`` of :attr:`matches` is bit-identical to the ``matches``
    of a :meth:`CamArray.search_batch` call at ``thresholds[t]`` with
    the same noise keys.

    Attributes
    ----------
    matches:
        ``(T, B, M)`` boolean decisions (threshold t, query q, row i).
    mismatch_counts:
        ``(B, M)`` digital mismatch counts (threshold-independent).
    v_ml:
        ``(B, M)`` noisy analog matchline voltages (shared by every
        threshold — the sweep's whole point), drawn on first read like
        :attr:`BatchSearchResult.v_ml`.
    thresholds:
        ``(T,)`` the sweep vector.
    mode:
        ED*/HD mode of the pass.
    energy_per_query_joules:
        ``(B,)`` array energy of issuing this search once per query;
        a scalar path would spend it once per (query, threshold).
    latency_ns:
        Latency of one pass through the array.
    """

    matches: np.ndarray
    mismatch_counts: np.ndarray
    thresholds: np.ndarray
    mode: MatchMode
    energy_per_query_joules: np.ndarray
    latency_ns: float
    _voltages: "Callable[[], np.ndarray]" = field(repr=False, compare=False)

    @cached_property
    def v_ml(self) -> np.ndarray:
        return self._voltages()

    @property
    def n_thresholds(self) -> int:
        return int(self.thresholds.shape[0])

    @property
    def n_queries(self) -> int:
        return int(self.mismatch_counts.shape[0])


def _reshaped(voltages: "Callable[[], np.ndarray]",
              shape: "tuple[int, ...]") -> np.ndarray:
    """A pass block's dense voltages with their leading pass axis."""
    return voltages().reshape(shape)


class StoredReference:
    """The stored, encoded reference content of one CAM array.

    The digital half of an array, as one immutable value: the stored
    segments (what the two 6T SRAM cells per base of Fig. 4(c) hold),
    their :class:`~repro.kernels.EncodedReference` (the float one-hot,
    built in one pass) the count kernel searches against, the row
    capacity :attr:`rows` and :attr:`n_encodes`.  Everything here is a
    pure function of the stored segments — no noise, no RNG, no ledger
    — so a ``StoredReference`` is thread-safe by construction, and any
    number of :class:`CamArray` instances can share it
    (``CamArray(stored=ref)``): per-session arrays keep their own seeds,
    noise prefixes and cost ledgers while the encode happens exactly
    once.  Nothing mutates it: storing new segments builds a new
    reference (:meth:`CamArray.store`).

    Built by :meth:`encode` (validate and encode once) or by
    :meth:`adopt_encoded` (the store open path, zero encodes).
    :attr:`n_encodes` counts encoding passes — the evidence
    ``tests/service/test_frontend.py`` uses to show a shared reference
    is encoded once, not once per session.
    """

    def __init__(self, segments: np.ndarray, rows: "int | None" = None):
        segments = as_segments_matrix(segments)
        check_count("rows", rows)
        if rows is None:
            rows = segments.shape[0]
        if segments.shape[0] > rows:
            raise CamConfigError(
                f"{segments.shape[0]} segments exceed {rows} rows"
            )
        self._encoded = encode_reference(segments)
        self._rows = int(rows)
        self._n_encodes = 1

    @classmethod
    def encode(cls, segments: np.ndarray,
               rows: "int | None" = None) -> "StoredReference":
        """Validate *segments* and encode them once.

        Parameters
        ----------
        segments:
            ``(n_rows, N)`` matrix of 2-bit reference codes.
        rows:
            Row capacity (default: exactly ``n_rows``) — a larger
            capacity models a partially-filled bank.  A positive
            integer: a float, bool or string raises
            :class:`~repro.errors.CamConfigError`.
        """
        return cls(segments, rows)

    @classmethod
    def adopt_encoded(cls, encoded: EncodedReference) -> "StoredReference":
        """A reference *adopting* a pre-built encoding, zero-copy.

        The mmap-open path of :mod:`repro.refstore`: the value is
        rebuilt directly over the payload views, the segment codes are
        checked like any stored segments, and **no encoding pass runs**
        (:attr:`n_encodes` stays 0, the encode-once evidence).
        """
        as_segments_matrix(encoded.segments)
        reference = cls.__new__(cls)
        reference._encoded = encoded
        reference._rows = encoded.n_rows
        reference._n_encodes = 0
        return reference

    # -- configuration ----------------------------------------------------

    @property
    def rows(self) -> int:
        """Row capacity (at least :attr:`n_segments`)."""
        return self._rows

    @property
    def cols(self) -> int:
        return self._encoded.n_cells

    @property
    def n_segments(self) -> int:
        """Stored reference rows."""
        return self._encoded.n_rows

    @property
    def n_encodes(self) -> int:
        """Encoding passes performed over this reference: 1 when
        encoded, 0 when adopted.

        One pass builds the whole search cache (see
        :func:`repro.kernels.encode_reference`), so a shared reference
        reports 1 no matter how many sessions search it.
        """
        return self._n_encodes

    @property
    def segments(self) -> np.ndarray:
        """The stored rows as a read-only ``(n_segments, N)`` matrix."""
        return self._encoded.segments

    def encoded(self) -> EncodedReference:
        """The count kernel's search cache, built in one encoding pass."""
        return self._encoded

    # -- digital count computation ---------------------------------------

    def counts_batch(self, queries: np.ndarray, mode: MatchMode,
                     rotations: "Sequence[int] | None" = None,
                     ) -> np.ndarray:
        """Digital ``(B, M)`` mismatch counts for a block of queries.

        Computed by :func:`repro.kernels.counts_batch`, the one count
        kernel: exact integer counts, equal to the boolean comparison
        sweep's.  Codes outside the DNA alphabet fall back to that
        sweep.

        ``rotations`` asks for the TASR/SR passes of the block from one
        encode: ``(R, B, M)`` counts, slice ``i`` equal to the counts of
        ``np.roll(queries, -rotations[i], axis=1)`` (offset 0 is the
        unrotated base pass) — the read loaded once and rotated in
        place by the shift registers (Fig. 4).  Each rotation must be
        an integer (:class:`~repro.errors.CamConfigError` otherwise,
        never truncated).
        """
        if rotations is not None:
            rotations = tuple(check_integer("rotation", rotation)
                              for rotation in rotations)
        return counts_batch(self._encoded, queries,
                            ed_star=mode is MatchMode.ED_STAR,
                            rotations=rotations)

    def counts_batch_dual(
            self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ED*, HD)`` count blocks sharing one encoding sweep.

        The co-located comparison determines the HD counts and is also
        one of ED*'s three planes, so computing the two modes together
        reuses the query encoding — the controller's trick of issuing
        the ED* and HD searches back-to-back while the searchlines
        still hold the read.  Bit-exact with two :meth:`counts_batch`
        calls.
        """
        return counts_batch_dual(self._encoded, queries)


class CamArray:
    """One ML-CAM array in either the charge or the current domain.

    Parameters
    ----------
    rows, cols:
        Geometry (M segments of N bases); the paper uses 256 x 256.
    domain:
        ``"charge"`` (ASMCap) or ``"current"`` (EDAM).
    sigma_rel:
        Relative device variation; defaults to the paper's value for
        the chosen domain (1.4 % capacitor / 2.5 % current).
    noisy:
        Master switch for variation noise (False = ideal array).
    seed:
        Seed folded into every keyed noise stream.
    strict_paper_vref:
        Use the literal ``V_ref = T/N*VDD`` rule (see
        :mod:`repro.cam.sense_amp`).
    ledger_compaction:
        ``None`` (default) keeps the append-only ledger every one-shot
        experiment expects; an integer bound opts the array's ledger
        into bounded-memory compaction (see
        :class:`repro.cost.ledger.CostLedger`) — what a long-running
        streaming service passes.
    stored:
        A :class:`StoredReference` to borrow instead of storing a
        private one.  The array's geometry comes from the reference
        (``rows``/``cols`` are ignored), the encode is *not* repeated,
        and :meth:`store` is disabled — the reference is shared.  All
        per-array state (seed, noise streams, ledger) stays private, so
        N arrays over one reference draw independent keyed noise
        exactly as N privately-stored arrays with the same seeds would.
    """

    def __init__(self, rows: int = constants.ARRAY_ROWS,
                 cols: int = constants.ARRAY_COLS,
                 domain: str = "charge",
                 sigma_rel: "float | None" = None,
                 noisy: bool = True,
                 seed: int = 0,
                 strict_paper_vref: bool = False,
                 vdd: float = constants.VDD_VOLTS,
                 ledger_compaction: "int | None" = None,
                 stored: "StoredReference | None" = None):
        if domain not in _DOMAINS:
            raise CamConfigError(
                f"domain must be one of {_DOMAINS}, got {domain!r}"
            )
        validate_service_knobs(compaction=ledger_compaction)
        # The cached kernel plan; it goes with ROADMAP item 1's
        # perfbench PR, whose setups time it as ``arch.autotune``.
        from repro.arch.autotune import plan_backend
        self._backend = plan_backend()
        self._domain = domain
        if stored is not None:
            rows, cols = stored.rows, stored.cols
        else:
            check_count("rows", rows)
            check_count("cols", cols)
        self._rows, self._cols = int(rows), int(cols)
        self._stored = stored
        self._shares_stored = stored is not None
        self._noisy = noisy
        self._seed = check_integer("seed", seed) & 0xFFFFFFFFFFFFFFFF
        self._noise_prefix = fold_key((self._seed, _NOISE_STREAM_TAG))
        self._vdd = vdd
        if domain == "charge":
            sigma = (constants.ASMCAP_CAPACITOR_SIGMA
                     if sigma_rel is None else sigma_rel)
            self._variation = ChargeDomainVariation(sigma_rel=sigma, vdd=vdd)
            self._matchline = ChargeDomainMatchline(vdd=vdd)
            self._sense_amp = SenseAmplifier(
                vdd=vdd, rising=True, strict_paper_rule=strict_paper_vref
            )
            self._search_time_ns = constants.ASMCAP_SEARCH_TIME_NS
        else:
            sigma = (constants.EDAM_CURRENT_SIGMA
                     if sigma_rel is None else sigma_rel)
            self._variation = CurrentDomainVariation(sigma_rel=sigma, vdd=vdd)
            self._matchline = CurrentDomainMatchline(vdd=vdd)
            self._sense_amp = SenseAmplifier(
                vdd=vdd, rising=False, strict_paper_rule=strict_paper_vref
            )
            self._search_time_ns = constants.EDAM_SEARCH_TIME_NS
        #: The array's cost ledger: one typed event per physical pass.
        self.ledger = CostLedger(compaction=ledger_compaction)
        self._levels: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" \
            = None

    # -- configuration ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def domain(self) -> str:
        return self._domain

    @property
    def stored(self) -> "StoredReference | None":
        """The stored reference (owned or borrowed); ``None`` before
        the first :meth:`store`."""
        return self._stored

    @property
    def shares_stored_reference(self) -> bool:
        """True when this array borrows a shared reference."""
        return self._shares_stored

    @property
    def backend(self) -> str:
        """``"numpy-gemm"``, the one count kernel.

        Read by the benchmark's configuration record; it goes with
        ROADMAP item 1's perfbench PR.
        """
        return self._backend

    @property
    def noisy(self) -> bool:
        return self._noisy

    @property
    def search_time_ns(self) -> float:
        return self._search_time_ns

    @property
    def sense_amp(self) -> SenseAmplifier:
        return self._sense_amp

    @property
    def variation(self):
        return self._variation

    @property
    def stats(self) -> SearchStats:
        """Cumulative counters, derived on demand from the ledger.

        A sweep pass counts its ``B`` physical searches (not
        ``T * B``): the analog levels are computed once per query and
        reused for every threshold, mirroring what the engine computed.
        """
        return search_stats(self.ledger)

    # -- data path --------------------------------------------------------

    def store(self, segments: np.ndarray) -> None:
        """Store reference segments in rows 0 upward, replacing any
        earlier content, and encode them once.

        Disabled on arrays that borrow a shared
        :class:`StoredReference`; build a new one with
        :meth:`StoredReference.encode` instead.
        """
        if self._shares_stored:
            raise CamConfigError(
                "this array borrows a shared StoredReference; store() "
                "would change what every session sharing it searches"
            )
        reference = StoredReference(segments, rows=self._rows)
        if reference.cols != self._cols:
            raise CamConfigError(
                f"segments shape {reference.segments.shape} does not fit "
                f"array {self._rows}x{self._cols}"
            )
        self._stored = reference
        self.ledger.record(ReferenceLoad(
            n_segments=reference.n_segments, n_cells=self._cols,
        ))

    def stored_segments(self) -> np.ndarray:
        """The stored rows as a read-only ``(n_segments, N)`` matrix."""
        return self._reference().segments

    def mismatch_counts_batch(self, queries: np.ndarray,
                              mode: MatchMode,
                              rotations: "Sequence[int] | None" = None,
                              ) -> np.ndarray:
        """Digital ``(B, M)`` mismatch counts for a block of queries.

        Computed by the count kernel on :class:`StoredReference`.  With
        ``rotations``, the ``(R, B, M)`` counts of every rotated pass
        from one encode (see :meth:`StoredReference.counts_batch`).
        """
        queries = self._check_queries(queries)
        return self._reference().counts_batch(queries, mode,
                                              rotations=rotations)

    def mismatch_counts_batch_dual(
            self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ED*, HD)`` count blocks sharing one encoding sweep.

        Bit-exact with two :meth:`mismatch_counts_batch` calls; see
        :meth:`StoredReference.counts_batch_dual`.
        """
        queries = self._check_queries(queries)
        return self._reference().counts_batch_dual(queries)

    def _pass_event(self, counts: np.ndarray, thresholds: np.ndarray,
                    mode: MatchMode, sweep: bool, noise_keys: np.ndarray,
                    rotation: int) -> SearchPassEvent:
        """One physical pass as a typed event (not yet recorded).

        Classification: a Hamming pass is HDAC's extra search, a
        rotated ED* pass is a TASR/SR rotation (carrying its
        shift-cycle count), an unrotated ED* pass is the base search.
        The event carries the per-row mismatch populations; energy and
        latency are *derived views* (:mod:`repro.cost.views`).
        """
        if mode is MatchMode.HAMMING and rotation == 0:
            cls, extra = HdacPass, {}
        elif rotation != 0:
            cls, extra = TasrRotationPass, {"rotation": rotation}
        else:
            cls, extra = EdStarPass, {}
        return cls(
            domain=self._domain,
            mode="hamming" if mode is MatchMode.HAMMING else "ed_star",
            n_cells=self.cols, vdd=self._vdd,
            search_time_ns=self._search_time_ns,
            mismatch_counts=counts,
            thresholds=thresholds,
            sweep=sweep,
            query_keys=noise_keys,
            **extra,
        )

    def search_batch(self, queries: np.ndarray,
                     threshold: int,
                     mode: "MatchMode | Sequence[MatchMode]"
                     = MatchMode.ED_STAR,
                     noise_keys: "Sequence | None" = None,
                     precomputed_counts: "np.ndarray | Sequence | None"
                     = None,
                     rotation: "int | Sequence[int]" = 0
                     ) -> BatchSearchResult:
        """Search a ``(B, N)`` block of queries in one vectorised pass.

        The ``T = 1`` case of the keyed pass: every query is decided
        against one sense-amp reference.

        Parameters
        ----------
        queries:
            ``(B, N)`` uint8 read codes.
        threshold:
            The one integer threshold of the batch; a vector raises
            :class:`~repro.errors.ThresholdError` (a threshold vector
            is a sweep: :meth:`search_sweep`).
        mode:
            ED*/HD mode for the whole batch.
        noise_keys:
            Per-query noise keys (length ``B``); default ``(q,)``, the
            query's index in the block.
        precomputed_counts:
            Digital counts for these queries in this mode, if the
            caller already holds them (e.g. one half of a
            :meth:`mismatch_counts_batch_dual` sweep, or one slice of a
            ``mismatch_counts_batch(..., rotations=)`` call); must
            equal what :meth:`mismatch_counts_batch` would return for
            the (rotated) queries.
        rotation:
            Signed integer rotation offset of the pass (tags the cost
            event as a rotation pass and charges its shift-register
            cycles); a float, bool or string raises
            :class:`~repro.errors.CamConfigError`.
            Without ``precomputed_counts`` the queries are searched as
            given, so the caller passes them already rotated.

        **A pass block.**  With ``rotation`` a sequence of ``P``
        offsets, the call issues ``P`` back-to-back passes over the
        same reads — the base ED* pass and its TASR rotations, or the
        ED*/HD pair — the read loaded once while the searchlines hold
        it.  ``mode`` then holds ``P`` modes, ``noise_keys`` ``P``
        per-pass key blocks, and ``precomputed_counts`` ``None``, a
        ``(P, B, M)`` array or ``P`` ``(B, M)`` blocks.  Every result
        array gains a leading pass axis, the result's ``mode`` is the
        tuple of modes, and the ledger records one event per pass, in
        order, each ``==`` the event its own call would record.
        """
        queries = self._check_queries(queries)
        n_queries = queries.shape[0]
        threshold = check_threshold(threshold, "search_sweep")
        if np.ndim(rotation) == 0:
            passes = [(mode, check_integer("rotation", rotation),
                       noise_keys)]
        elif (isinstance(mode, MatchMode) or noise_keys is None
              or not len(mode) == len(noise_keys) == len(rotation)):
            raise CamConfigError(
                "a pass block needs one mode and one noise-key block "
                "per rotation"
            )
        else:
            passes = [(m, check_integer("rotation", r), k)
                      for m, r, k in zip(mode, rotation, noise_keys,
                                         strict=True)]
        matches, counts, voltages, energy = self._keyed_pass(
            queries, np.array([threshold]), passes, precomputed_counts,
            sweep=False,
        )
        matches = matches[0]
        if np.ndim(rotation) != 0:
            shape = (len(passes), n_queries)
            matches = matches.reshape(shape + matches.shape[1:])
            counts = counts.reshape(matches.shape)
            energy = energy.reshape(shape)
            voltages = partial(_reshaped, voltages, matches.shape)
            mode = tuple(mode)
        return BatchSearchResult(
            matches=matches, mismatch_counts=counts,
            thresholds=np.full(n_queries, threshold), mode=mode,
            energy_joules=float(energy.sum()),
            latency_ns=self._search_time_ns * n_queries * len(passes),
            energy_per_query_joules=energy,
            _voltages=voltages,
        )

    def search_sweep(self, queries: np.ndarray,
                     thresholds: np.ndarray,
                     mode: MatchMode = MatchMode.ED_STAR,
                     noise_keys: "Sequence[tuple[int, ...]] | None" = None,
                     precomputed_counts: "np.ndarray | None" = None,
                     rotation: int = 0) -> SweepSearchResult:
        """Evaluate one search pass against a whole threshold sweep.

        The keyed pass over the whole ``(T,)`` threshold vector:
        counts and keyed variation noise are threshold-independent, so
        the pass is computed once and the sweep vector is applied as
        ``T`` vectorised sense-amp reference comparisons — slice ``t``
        of the result is bit-identical to :meth:`search_batch` at
        ``thresholds[t]`` with the same keys.  ``thresholds`` is a
        non-empty 1-D integer vector shared by every query; the other
        parameters are those of a single-pass :meth:`search_batch`.
        """
        queries = self._check_queries(queries)
        thresholds = check_thresholds(thresholds)
        rotation = check_integer("rotation", rotation)
        matches, counts, voltages, energy = self._keyed_pass(
            queries, thresholds, [(mode, rotation, noise_keys)],
            precomputed_counts, sweep=True,
        )
        return SweepSearchResult(
            matches=matches, mismatch_counts=counts,
            thresholds=thresholds, mode=mode,
            energy_per_query_joules=energy,
            latency_ns=self._search_time_ns,
            _voltages=voltages,
        )

    def _keyed_pass(self, queries: np.ndarray, thresholds: np.ndarray,
                    passes: list, counts, sweep: bool):
        """The one keyed search pass: counts, keyed noise and a ``(T,)``
        threshold vector, over ``P`` back-to-back passes of one read
        block.

        ``thresholds`` is the sweep vector (a batch is ``T = 1``, its
        events carrying the threshold broadcast to ``(B,)``);
        ``passes`` holds each pass's ``(mode, rotation, noise_keys)``
        and ``counts`` their ``(B, M)`` counts (``None``: counted here,
        the queries as given; one pass may give a bare ``(B, M)``
        block).  The passes are decided as one ``(P·B, M)`` block whose
        row ``p·B + q`` is read ``q`` in pass ``p``, under that pass's
        keys: a pass's decisions depend only on its counts, thresholds
        and keys, so stacking changes none of them.  Returns ``(matches,
        counts, voltages, energy)`` — ``(T, P·B, M)`` matches, the
        ``(P·B, M)`` counts, a thunk materialising their dense
        voltages and the ``(P·B,)`` energies — and records one event
        per pass, in order.  A block of passes gathers its energies
        once, pre-seeding each event's energy view.
        """
        n_queries = queries.shape[0]
        if not ((thresholds >= 0) & (thresholds <= self.cols)).all():
            raise ThresholdError(
                f"thresholds out of range 0..{self.cols}"
            )
        keys = []
        for _, _, noise_keys in passes:
            if noise_keys is None:
                noise_keys = np.arange(n_queries, dtype=np.int64)[:, None]
            elif len(noise_keys) != n_queries:
                raise CamConfigError(
                    f"{len(noise_keys)} noise keys for {n_queries} queries"
                )
            keys.append(np.asarray(noise_keys))
        if counts is None:
            counts = [self.mismatch_counts_batch(queries, mode)
                      for mode, _, _ in passes]
        elif isinstance(counts, np.ndarray) and counts.ndim == 2:
            counts = [counts]
        per_pass = list(counts)
        if len(per_pass) != len(passes):
            raise CamConfigError(
                f"{len(per_pass)} count blocks for {len(passes)} passes"
            )
        if len(passes) == 1:
            stacked, stacked_keys = per_pass[0], keys[0]
        else:
            stacked = (counts.reshape(-1, counts.shape[-1])
                       if isinstance(counts, np.ndarray)
                       else np.concatenate(per_pass))
            stacked_keys = np.concatenate(keys)
        matches = self._decide(stacked, thresholds, stacked_keys)
        pass_thresholds = (thresholds if sweep
                           else np.full(n_queries, thresholds[0]))
        events = [self._pass_event(block, pass_thresholds, mode, sweep,
                                   noise_keys, rotation)
                  for block, (mode, rotation, _), noise_keys
                  in zip(per_pass, passes, keys, strict=True)]
        if len(events) > 1:
            # The block read as one stream of P·B searches (never
            # recorded): one level-table gather serves every pass.
            energy = self._pass_event(stacked, pass_thresholds,
                                      passes[0][0], sweep, stacked_keys,
                                      0).energy_per_query_joules
            for index, event in enumerate(events):
                event.seed_energy_per_query(
                    energy[index * n_queries:(index + 1) * n_queries])
        for event in events:
            self.ledger.record(event)
        if len(events) == 1:
            energy = events[0].energy_per_query_joules
        voltages = partial(self._keyed_voltages, stacked, stacked_keys)
        return matches, stacked, voltages, energy

    # -- internals ----------------------------------------------------------

    def _reference(self) -> StoredReference:
        if self._stored is None:
            raise CamConfigError("search issued against an empty array")
        return self._stored

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = as_read_codes(queries)
        if queries.ndim != 2 or queries.shape[1] != self.cols:
            raise CamConfigError(
                f"query block shape {queries.shape} does not fit array "
                f"width {self.cols}; expected (B, {self.cols})"
            )
        return queries

    def _level_table(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(V_ideal, σ, half-width)`` of every level ``n = 0..N``.

        A row at level ``n`` samples a voltage within ``V_ideal(n) ±
        half-width(n)``: ``NORMAL_BOUND·σ(n)`` widened by
        :data:`_BAND_MARGIN` for float rounding.  A noiseless level
        (``σ = 0``, or an ideal array) samples ``V_ideal`` exactly.

        Built at the first pass and kept (read-only): every input is
        fixed for the array's lifetime.
        """
        if self._levels is None:
            levels = np.arange(self.cols + 1)
            v_ideal = self._ideal_voltages(levels)
            if not self._noisy:
                sigma = half = np.zeros(levels.shape)
            else:
                sigma = self._variation.sigma_vml(levels, self.cols)
                reach = NORMAL_BOUND * sigma
                half = np.where(sigma > 0, reach + _BAND_MARGIN
                                * (np.abs(v_ideal) + reach), 0.0)
            for table in (v_ideal, sigma, half):
                table.setflags(write=False)
            self._levels = (v_ideal, sigma, half)
        return self._levels

    def _decide(self, counts: np.ndarray, thresholds: np.ndarray,
                noise_keys: np.ndarray) -> np.ndarray:
        """``(T, B, M)`` decisions of one pass, drawing noise in band only.

        One sense-amp call decides every level's ideal voltage and both
        ends of its noise band for each threshold of the ``(T,)``
        vector: a ``(T, N+1)`` level-decision table, the same
        comparisons on the same float values a gather of ``V_ideal`` by
        count would make.  Every pair is first decided at its level's
        ideal voltage by count — with the integer cut ``count <
        cut[t]`` when every row of the table is a prefix (a monotone
        matchline), else by a gather from the table.  A level whose
        band ends agree decides alike for any voltage in its band, so
        only a pair whose level is in band for any threshold draws its
        keyed normal (stream position = its row) and is re-decided for
        every threshold, exactly as the dense draw decides it.
        """
        n_cells = self.cols
        v_ideal, sigma, half = self._level_table()
        table, *ends = self._sense_amp.decide_sweep(
            np.stack([v_ideal, v_ideal - half, v_ideal + half]),
            thresholds[:, None], n_cells).transpose(1, 0, 2)
        cut = table.sum(axis=1)
        if (table == (np.arange(n_cells + 1) < cut[:, None])).all():
            # Counts and cuts fit 0..N+1, so the compare runs in the
            # narrowest unsigned type (several times faster than intp).
            narrow = np.min_scalar_type(n_cells + 1)
            matches = (counts.astype(narrow)
                       < cut.astype(narrow)[:, None, None])
        else:
            matches = table[:, counts]
        band = ends[0] != ends[1]
        if not band.any():
            return matches
        queries, rows = np.nonzero(band.any(axis=0)[counts])
        levels = counts[queries, rows]
        states = fold_key_block(self._noise_prefix, noise_keys)[queries]
        v_ml = self._add_noise(v_ideal[levels], sigma[levels],
                               standard_normals(states, rows))
        matches[:, queries, rows] = self._sense_amp.decide_sweep(
            v_ml[:, None], thresholds[:, None], n_cells)[..., 0]
        return matches

    def _ideal_voltages(self, counts: np.ndarray) -> np.ndarray:
        if self._domain == "charge":
            return self._matchline.ideal_voltage(counts, self.cols)
        return self._matchline.sampled_voltage(counts, self.cols)

    def _add_noise(self, v_ideal: np.ndarray, sigma: np.ndarray,
                   raw: np.ndarray) -> np.ndarray:
        noise = raw * sigma
        if self._domain == "current":
            noise = -noise  # droop noise subtracts from the sampled level
        return v_ideal + noise

    def _keyed_voltages(self, counts: np.ndarray,
                        noise_keys: np.ndarray) -> np.ndarray:
        """Dense ``(B, M)`` matchline voltages with per-query keyed noise.

        What :attr:`BatchSearchResult.v_ml` materialises; the decisions
        of :meth:`_decide` equal :meth:`SenseAmplifier.decide_sweep`
        over these voltages.
        """
        v_ideal = self._ideal_voltages(counts)
        if not self._noisy or counts.shape[0] == 0:
            return v_ideal.astype(float)
        states = fold_key_block(self._noise_prefix, noise_keys)
        return self._add_noise(
            v_ideal, self._variation.sigma_vml(counts, self.cols),
            standard_normals(states, counts.shape[1]))
