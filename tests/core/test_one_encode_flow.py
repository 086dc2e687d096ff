"""The fused flow equals the per-pass flow, pass for pass.

``AsmCapMatcher._flow`` takes the base ED* counts and every TASR
rotation's counts from one encode of the block
(``mismatch_counts_batch(..., rotations=)``) and hands them to each
pass through ``precomputed_counts``.  The reference here is the route
that encode replaced: every pass searches its own ``np.roll`` copy of
the reads and counts it inside the search.  Decisions, per-cell
search counts, energies, latencies and every ledger event must be
``==`` — on sweeps whose thresholds straddle ``Tl``, on batches either
side of it, with HDAC sharing the block, and on unconditional rotated
passes over a current-domain array (EDAM's Sequence Rotation).  A
batch takes one threshold: a per-read vector is refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.cam.keyed_noise import fold_key_block
from repro.core.hdac import hdac_correct_batch
from repro.core.matcher import (
    PASS_ED_STAR,
    PASS_HAMMING,
    PASS_ROTATION,
    AsmCapMatcher,
    MatcherConfig,
    pass_keys,
)
from repro.core.tasr import rotation_offsets
from repro.errors import ThresholdError
from repro.genome.datasets import build_dataset
from oracles import events_equal, record_events

N_READS, READ_LENGTH, N_SEGMENTS = 24, 256, 32
KEYS = np.arange(100, 100 + N_READS, dtype=np.int64)


def _dataset(condition: str):
    return build_dataset(condition, n_reads=N_READS, read_length=READ_LENGTH,
                         n_segments=N_SEGMENTS, seed=11)


def _reads(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


def _matcher(dataset, config: "MatcherConfig | None" = None):
    array = CamArray(rows=N_SEGMENTS, cols=READ_LENGTH, seed=4)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, config, seed=5)


def _current_array(dataset) -> CamArray:
    array = CamArray(rows=N_SEGMENTS, cols=READ_LENGTH, domain="current",
                     seed=9)
    array.store(dataset.segments)
    return array


def _search(array, sweep, queries, thresholds, mode, keys, tag, rotation):
    search = array.search_sweep if sweep else array.search_batch
    return search(np.roll(queries, -rotation, axis=1), thresholds, mode,
                  noise_keys=pass_keys(keys, tag), rotation=rotation)


def _per_pass_flow(matcher: AsmCapMatcher, reads, thresholds, sweep):
    """ED* -> HDAC -> TASR with every pass re-encoding its own reads,
    over a ``(T,)`` threshold vector (a batch is ``T = 1``)."""
    array, config = matcher.array, matcher.config
    grid = (thresholds.shape[0], reads.shape[0])
    n_searches = np.zeros(grid, dtype=int)
    energy = np.zeros(grid)
    latency = np.zeros(grid)

    def run(mask, mode, tag, rotation=0):
        rows = np.flatnonzero(mask)
        result = _search(array, sweep, reads,
                         thresholds[rows] if sweep else int(thresholds[0]),
                         mode, KEYS, tag, rotation)
        n_searches[rows] += 1
        energy[rows] += result.energy_per_query_joules
        latency[rows] += array.search_time_ns
        return rows, (result.matches if sweep else result.matches[None])

    _, decisions = run(np.ones(grid[0], dtype=bool), MatchMode.ED_STAR,
                       PASS_ED_STAR)
    decisions = decisions.copy()
    if config.enable_hdac:
        p = np.array([matcher.hdac_probability(int(t)) for t in thresholds])
        hd_mask = p >= constants.HDAC_DISABLE_THRESHOLD
        if hd_mask.any():
            rows, hd = run(hd_mask, MatchMode.HAMMING, PASS_HAMMING)
            decisions[rows] = hdac_correct_batch(
                decisions[rows], hd, p[rows][:, None],
                fold_key_block(matcher._hdac_prefix, KEYS))
    tasr_mask = thresholds >= matcher.tasr_lower_bound()
    if config.enable_tasr and tasr_mask.any():
        for offset in rotation_offsets(config.tasr_nr,
                                       config.tasr_direction):
            rows, rotated = run(tasr_mask, MatchMode.ED_STAR,
                                PASS_ROTATION + offset, offset)
            decisions[rows] |= rotated
    return decisions, n_searches, energy, latency


def _assert_flow_equal(dataset, thresholds, sweep, config=None):
    fused, reference = _matcher(dataset, config), _matcher(dataset, config)
    recorded = [record_events(matcher.array.ledger)
                for matcher in (fused, reference)]
    reads = _reads(dataset)
    if sweep:
        outcome = fused.match_sweep(reads, thresholds, query_keys=KEYS)
    else:
        outcome = fused.match_batch(reads, thresholds, query_keys=KEYS)
    decisions, n_searches, energy, latency = _per_pass_flow(
        reference, reads, np.atleast_1d(thresholds), sweep)
    if not sweep:
        decisions, n_searches, energy, latency = (
            decisions[0], n_searches[0], energy[0], latency[0])
    assert np.array_equal(outcome.decisions, decisions)
    assert np.array_equal(outcome.n_searches, n_searches)
    assert np.array_equal(outcome.energy_joules, energy)
    assert np.array_equal(outcome.latency_ns, latency)
    assert events_equal(*recorded)
    return fused, outcome


def _straddling(low: int, high: int) -> np.ndarray:
    """Per-read thresholds cycling ``low..high``."""
    return np.resize(np.arange(low, high + 1), N_READS)


class TestAsmCapFlow:
    def test_sweep_straddling_tl(self):
        dataset = _dataset("B")
        fused, outcome = _assert_flow_equal(dataset, list(range(2, 17)),
                                            sweep=True)
        assert outcome.tasr_lower_bound == 6
        assert outcome.tasr_mask.any() and not outcome.tasr_mask.all()
        # One base pass plus 2 * NR rotations; HDAC is inert in B.
        nr = fused.config.tasr_nr
        assert sum(fused.array.ledger.pass_counts().values()) == 1 + 2 * nr

    def test_batch_threshold_vector_names_match_sweep(self):
        """Per-read thresholds straddling ``Tl`` are a sweep's job: the
        batch refuses them before any pass runs."""
        dataset = _dataset("B")
        matcher = _matcher(dataset)
        with pytest.raises(ThresholdError, match="match_sweep"):
            matcher.match_batch(_reads(dataset), _straddling(2, 16),
                                query_keys=KEYS)
        assert not matcher.array.ledger.pass_counts()

    def test_batch_below_tl_issues_no_rotation(self):
        fused, outcome = _assert_flow_equal(_dataset("B"), 4, sweep=False)
        assert outcome.tasr_lower_bound > 4 and not outcome.tasr_mask.any()
        assert sum(fused.array.ledger.pass_counts().values()) == 1

    def test_batch_every_read_above_tl(self):
        fused, outcome = _assert_flow_equal(_dataset("B"), 8, sweep=False)
        assert outcome.tasr_mask.all()

    @pytest.mark.parametrize("sweep", [True, False])
    def test_hdac_and_tasr_share_the_block(self, sweep):
        """A small gamma pulls Tl into the HDAC range of condition A,
        so the dual/HD counts and the rotations serve one flow."""
        dataset = _dataset("A")
        config = MatcherConfig(tasr_gamma=2e-5)
        if sweep:
            _, outcome = _assert_flow_equal(dataset, list(range(1, 9)),
                                            sweep, config)
            assert outcome.hdac_mask.any() and outcome.tasr_mask.any()
            return
        both = 0
        for threshold in range(1, 9):
            _, outcome = _assert_flow_equal(dataset, threshold, sweep,
                                            config)
            both += bool(outcome.hdac_mask.all() and outcome.tasr_mask.all())
        assert both

    def test_hdac_and_tasr_cover_every_read(self):
        dataset = _dataset("A")
        config = MatcherConfig(tasr_gamma=2e-5)
        _, outcome = _assert_flow_equal(dataset, 6, False, config)
        assert outcome.hdac_mask.all() and outcome.tasr_mask.all()

    def test_one_kernel_call_when_tasr_covers_every_read(self, monkeypatch):
        calls = []
        counts_batch = StoredReference.counts_batch

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("rotations"))
            return counts_batch(self, *args, **kwargs)

        monkeypatch.setattr(StoredReference, "counts_batch", spy)
        dataset = _dataset("B")
        matcher = _matcher(dataset)
        matcher.match_batch(_reads(dataset), 8, query_keys=KEYS)
        assert calls == [(0,) + rotation_offsets(matcher.config.tasr_nr,
                                                 "both")]


class TestEdamSequenceRotation:
    """The base pass and NR = 2 rotations of both directions over a
    current-domain array, from one rotations encode."""

    OFFSETS = (0,) + rotation_offsets(2, "both")

    @staticmethod
    def _tag(offset: int) -> int:
        return PASS_ROTATION + offset if offset else PASS_ED_STAR

    def _reference(self, array, reads, thresholds, sweep):
        return [_search(array, sweep, reads, thresholds,
                        MatchMode.ED_STAR, KEYS[:reads.shape[0]],
                        self._tag(offset), offset)
                for offset in self.OFFSETS]

    def _counts(self, array, reads):
        return array.mismatch_counts_batch(reads, MatchMode.ED_STAR,
                                           rotations=self.OFFSETS)

    def test_sweep_equals_per_pass(self):
        dataset = _dataset("B")
        reads, thresholds = _reads(dataset), list(range(2, 17, 2))
        fused, reference = _current_array(dataset), _current_array(dataset)
        recorded = [record_events(array.ledger)
                    for array in (fused, reference)]
        counts = self._counts(fused, reads)
        got = [fused.search_sweep(reads, thresholds, MatchMode.ED_STAR,
                                  noise_keys=pass_keys(KEYS, self._tag(o)),
                                  precomputed_counts=block, rotation=o)
               for o, block in zip(self.OFFSETS, counts, strict=True)]
        want = self._reference(reference, reads, thresholds, sweep=True)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.matches, w.matches)
            assert np.array_equal(g.energy_per_query_joules,
                                  w.energy_per_query_joules)
        assert sum(fused.ledger.pass_counts().values()) == 1 + 2 * 2
        assert events_equal(*recorded)

    def test_match_equals_per_pass(self):
        dataset = _dataset("B")
        read = _reads(dataset)[3:4]
        fused, reference = _current_array(dataset), _current_array(dataset)
        recorded = [record_events(array.ledger)
                    for array in (fused, reference)]
        block = fused.search_batch(
            read, 8, [MatchMode.ED_STAR] * len(self.OFFSETS),
            noise_keys=[pass_keys(KEYS[:1], self._tag(o))
                        for o in self.OFFSETS],
            precomputed_counts=self._counts(fused, read),
            rotation=self.OFFSETS)
        results = self._reference(reference, read, 8, sweep=False)
        assert np.array_equal(block.matches,
                              np.stack([r.matches for r in results]))
        assert np.array_equal(
            block.energy_per_query_joules,
            np.stack([r.energy_per_query_joules for r in results]))
        assert events_equal(*recorded)
