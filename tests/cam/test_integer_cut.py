"""The integer-cut decide and the stacked pass block are exact.

``CamArray._decide`` decides every pair at its level's ideal voltage
from a ``(T, N+1)`` level-decision table — by the integer cut
``count < cut[t]`` when every table row is a prefix, by a table gather
otherwise — and re-decides in-band pairs with their keyed normals.
The oracle is the float decide it replaced
(:class:`_FloatDecideArray`): ``decide_sweep(V_ideal[counts], …)``
followed by the same in-band re-decide.  Decisions must be ``==`` in
the charge and current domains, with ``strict_paper_vref`` on and
off, for ``(T,)`` threshold vectors holding duplicate and unsorted
thresholds (``_decide`` takes the vector as given, with no
``np.unique``) and reaching thresholds 0 and ``N``, on noisy arrays
with in-band pairs and on a non-monotone level table (the gather
branch).

A batch flow issues its passes (a lone ED* pass included) as one pass
block through ``search_batch``.  Each recorded event's pre-seeded
energy must ``==`` the views function over that event, and the events
must match a pass-by-pass flow's in class, rotation, counts, keys and
``(B,)`` broadcast thresholds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cam.keyed_noise import fold_key_block, standard_normals
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.cost import views
from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset
from oracles import record_events, search_passes

N_CELLS = (1, 2, 31, 64, 256)


class _FloatDecideArray(CamArray):
    """The float decide: ideal voltages gathered by count, compared
    through the sense amplifiers, in-band pairs re-decided."""

    def _decide(self, counts, thresholds, noise_keys):
        n_cells = self.cols
        v_ideal, sigma, half = self._level_table()
        block = thresholds[:, None]
        matches = self.sense_amp.decide_sweep(v_ideal[counts], block,
                                              n_cells)
        ends = self.sense_amp.decide_sweep(
            np.stack([v_ideal - half, v_ideal + half]), block, n_cells)
        band = ends[:, 0] != ends[:, 1]
        if not band.any():
            return matches
        in_band = band.any(axis=0)[counts]
        queries, rows = np.nonzero(in_band)
        levels = counts[queries, rows]
        states = fold_key_block(self._noise_prefix, noise_keys)[queries]
        v_ml = self._add_noise(v_ideal[levels], sigma[levels],
                               standard_normals(states, rows))
        matches[:, queries, rows] = self.sense_amp.decide_sweep(
            v_ml[:, None], block, n_cells)[..., 0]
        return matches


class _ShuffledLevels:
    """Mixin: a non-monotone ideal-voltage table (no prefix rows)."""

    def _level_table(self):
        v_ideal, sigma, half = CamArray._level_table(self)
        order = np.random.default_rng(self.cols).permutation(v_ideal.size)
        return v_ideal[order], sigma[order], half[order]


class _ShuffledArray(_ShuffledLevels, CamArray):
    pass


class _ShuffledFloatArray(_ShuffledLevels, _FloatDecideArray):
    pass


@st.composite
def _decisions(draw):
    """An array configuration, a count block and a ``(T,)`` threshold
    vector holding a duplicate, in any order."""
    n_cells = draw(st.sampled_from(N_CELLS))
    domain = draw(st.sampled_from(["charge", "current"]))
    config = {
        "domain": domain,
        "strict_paper_vref": draw(st.booleans()),
        "noisy": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32)),
        # Wide variation puts many levels in band.
        "sigma_rel": draw(st.sampled_from(
            [None, 0.1 if domain == "charge" else 1 / 6])),
    }
    n_queries = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    counts = rng.integers(0, n_cells + 1, (n_queries, n_rows))
    edges = st.sampled_from([0, n_cells])
    level = st.one_of(edges, st.integers(0, n_cells))
    values = draw(st.lists(level, min_size=1, max_size=5))
    values.append(draw(st.sampled_from(values)))
    thresholds = np.asarray(draw(st.permutations(values)))
    keys = np.column_stack((np.arange(n_queries), np.full(n_queries, 3)))
    return n_cells, config, counts, thresholds, keys


def _pair(classes, n_cells, config, n_rows):
    return [cls(rows=n_rows, cols=n_cells, **config) for cls in classes]


class TestIntegerCut:
    @settings(max_examples=300, deadline=None)
    @given(_decisions())
    def test_cut_equals_the_float_decide(self, case):
        n_cells, config, counts, thresholds, keys = case
        cut, float_ = _pair((CamArray, _FloatDecideArray), n_cells,
                            config, counts.shape[1])
        assert np.array_equal(cut._decide(counts, thresholds, keys),
                              float_._decide(counts, thresholds, keys))

    @settings(max_examples=100, deadline=None)
    @given(_decisions())
    def test_non_monotone_levels_take_the_table_gather(self, case):
        n_cells, config, counts, thresholds, keys = case
        cut, float_ = _pair((_ShuffledArray, _ShuffledFloatArray), n_cells,
                            config, counts.shape[1])
        assert np.array_equal(cut._decide(counts, thresholds, keys),
                              float_._decide(counts, thresholds, keys))

    def test_noisy_current_domain_redecides_in_band_pairs(self):
        """Wide current-domain variation: many pairs in band, each
        re-decided with its keyed draw, exactly as the float decide."""
        n_cells = 64
        config = {"domain": "current", "sigma_rel": 1 / 6, "seed": 9}
        cut, float_ = _pair((CamArray, _FloatDecideArray), n_cells, config,
                            40)
        rng = np.random.default_rng(4)
        counts = rng.integers(0, n_cells + 1, (30, 40))
        keys = np.column_stack((np.arange(30), np.full(30, 1)))
        v_ideal, _, half = cut._level_table()
        for thresholds in (np.arange(0, n_cells + 1, 8),
                           rng.integers(0, n_cells + 1, 30)):
            ends = cut.sense_amp.decide_sweep(
                np.stack([v_ideal - half, v_ideal + half]),
                np.unique(thresholds)[:, None], n_cells)
            assert (ends[:, 0] != ends[:, 1]).any()  # in-band levels exist
            assert np.array_equal(cut._decide(counts, thresholds, keys),
                                  float_._decide(counts, thresholds, keys))

    def test_each_threshold_decides_its_own_slice(self):
        """Duplicate and unsorted thresholds: slice ``t`` of a vector
        decide equals the ``T = 1`` decide at ``thresholds[t]``."""
        array = CamArray(rows=40, cols=64, domain="current",
                         sigma_rel=1 / 6, seed=9)
        rng = np.random.default_rng(6)
        counts = rng.integers(0, 65, (30, 40))
        keys = np.column_stack((np.arange(30), np.full(30, 2)))
        thresholds = np.array([40, 8, 40, 0, 64, 8])
        got = array._decide(counts, thresholds, keys)
        assert got.shape == (6, 30, 40)
        for t in range(thresholds.shape[0]):
            assert np.array_equal(
                got[t], array._decide(counts, thresholds[t:t + 1], keys)[0])
        assert np.array_equal(got[0], got[2]) and np.array_equal(got[1],
                                                                 got[5])


def _dataset(condition: str):
    return build_dataset(condition, n_reads=20, read_length=256,
                         n_segments=24, seed=5)


def _matcher(dataset, config=None, array_cls=CamArray):
    array = array_cls(rows=24, cols=256, seed=2)
    array.store(dataset.segments)
    return AsmCapMatcher(array, dataset.model, config, seed=3)


class _PassByPassArray(CamArray):
    """Every pass block issued as its passes' own searches."""

    def search_batch(self, queries, threshold, mode=MatchMode.ED_STAR,
                     noise_keys=None, precomputed_counts=None, rotation=0):
        if np.ndim(rotation) == 0:
            return super().search_batch(queries, threshold, mode,
                                        noise_keys, precomputed_counts,
                                        rotation)
        if precomputed_counts is None:
            precomputed_counts = [None] * len(rotation)
        results = [super(_PassByPassArray, self).search_batch(
            queries, threshold, m, keys, counts, r)
            for m, keys, counts, r in zip(mode, noise_keys,
                                          precomputed_counts, rotation,
                                          strict=True)]
        return dataclasses.replace(
            results[0],
            matches=np.stack([r.matches for r in results]),
            energy_per_query_joules=np.stack(
                [r.energy_per_query_joules for r in results]))


_STACKED_FLOWS = [
    pytest.param("B", 8, MatcherConfig.plain(), 1, id="lone-ed-star"),
    pytest.param("B", 8, None, 5, id="ed-star-and-rotations"),
    pytest.param("A", 4, None, 2, id="ed-star-hd-pair"),
    pytest.param("A", 6, MatcherConfig(tasr_gamma=2e-5), 6,
                 id="ed-star-hd-and-rotations"),
]


class TestStackedFlow:
    @pytest.mark.parametrize("condition, threshold, config, n_passes",
                             _STACKED_FLOWS)
    def test_one_block_per_flow_with_seeded_energy(
            self, condition, threshold, config, n_passes, monkeypatch):
        dataset = _dataset(condition)
        reads = np.stack([r.read.codes for r in dataset.reads])
        keys = np.arange(50, 70)
        stacked = _matcher(dataset, config)
        recorded = record_events(stacked.array.ledger)
        calls = []
        search_batch = CamArray.search_batch

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("rotation"))
            return search_batch(self, *args, **kwargs)

        monkeypatch.setattr(CamArray, "search_batch", spy)
        got = stacked.match_batch(reads, threshold, query_keys=keys)
        monkeypatch.undo()
        assert len(calls) == 1 and len(calls[0]) == n_passes

        events = search_passes(recorded)
        assert len(events) == n_passes
        for event in events:
            seeded = event.__dict__["_energy_per_query"]
            assert np.array_equal(
                seeded, views.search_pass_energy_per_query(event))

        reference = _matcher(dataset, config, _PassByPassArray)
        reference_events = record_events(reference.array.ledger)
        want = reference.match_batch(reads, threshold, query_keys=keys)
        assert np.array_equal(got.decisions, want.decisions)
        assert np.array_equal(got.energy_joules, want.energy_joules)
        assert np.array_equal(got.latency_ns, want.latency_ns)
        assert np.array_equal(got.n_searches, want.n_searches)
        for ours, theirs in zip(events,
                                search_passes(reference_events),
                                strict=True):
            assert type(ours) is type(theirs)
            assert getattr(ours, "rotation", 0) \
                == getattr(theirs, "rotation", 0)
            assert np.array_equal(ours.mismatch_counts,
                                  theirs.mismatch_counts)
            assert np.array_equal(ours.query_keys, theirs.query_keys)
            assert np.array_equal(ours.thresholds, theirs.thresholds)
            assert ours.thresholds.tolist() == [threshold]
            assert np.array_equal(ours.energy_per_query_joules,
                                  theirs.energy_per_query_joules)

    def test_a_pass_block_needs_one_mode_and_key_block_per_rotation(self):
        dataset = _dataset("B")
        array = _matcher(dataset).array
        reads = np.stack([r.read.codes for r in dataset.reads])
        keys = np.zeros((reads.shape[0], 2), dtype=np.int64)
        for mode, noise_keys in ((MatchMode.ED_STAR, [keys, keys]),
                                 ((MatchMode.ED_STAR,) * 2, None),
                                 ((MatchMode.ED_STAR,) * 3, [keys, keys])):
            with pytest.raises(CamConfigError, match="per rotation"):
                array.search_batch(reads, 8, mode, noise_keys=noise_keys,
                                   rotation=(0, 1))
        assert not array.ledger.pass_counts()
