"""Noise-band pruning is exact: decisions equal the dense keyed draw.

A search pass draws keyed normals only for (query, row) pairs whose
count sits at a level whose noise band straddles a reference; every
other pair is decided from its count.  Two oracles pin that down:

* the lazy dense voltages — ``sense_amp.decide_sweep(result.v_ml,
  block)`` must equal ``result.matches`` for every pass;
* an unpruned reference array (:class:`_DenseArray`) deciding the dense
  voltages directly — decisions *and* ledger events must be equal.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray
from repro.cam.cell import MatchMode
from repro.cam.variation import CurrentDomainVariation
from repro.core.matcher import PASS_ROTATION, AsmCapMatcher, pass_keys
from repro.genome.datasets import build_dataset
from oracles import events_equal, record_events

N_CELLS = (32, 64, 128, 256, 512)


class _DenseArray(CamArray):
    """The unpruned reference: draw every pair, then decide."""

    def _decide(self, counts, thresholds, noise_keys):
        return self.sense_amp.decide_sweep(
            self._keyed_voltages(counts, noise_keys), thresholds[:, None],
            self.cols)


@st.composite
def pass_cases(draw):
    """One keyed pass: array config, crowded counts, a sweep vector or
    a batch's one threshold."""
    n_cells = draw(st.sampled_from(N_CELLS))
    domain = draw(st.sampled_from(["charge", "current"]))
    # The current domain's noise floor needs >= 1 distinguishable
    # state, i.e. sigma_rel <= 1/6 under the 3-sigma rule (larger
    # values are a CamConfigError).
    max_sigma = 0.3 if domain == "charge" else 1 / 6
    config = {
        "domain": domain,
        "strict_paper_vref": draw(st.booleans()),
        "noisy": draw(st.integers(0, 5)) > 0,
        "seed": draw(st.integers(0, 2**32)),
        "sigma_rel": draw(st.one_of(
            st.none(), st.just(0.0), st.just(max_sigma),
            st.floats(0.0, max_sigma))),
    }
    variation = None
    if config["domain"] == "current" and draw(st.booleans()):
        variation = {"count_dependent": draw(st.booleans())}
    n_queries = draw(st.integers(0, 6))
    n_rows = draw(st.integers(1, 12))
    sweep = draw(st.booleans())
    centres = draw(st.lists(st.integers(0, n_cells), min_size=1,
                            max_size=4))
    thresholds = (np.asarray(centres) if sweep
                  else draw(st.sampled_from(centres)))
    near = np.broadcast_to(thresholds, (n_queries, np.size(thresholds)))
    # Counts crowd around the thresholds: a pick plus a small offset.
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    which = rng.integers(0, near.shape[1], (n_queries, n_rows))
    base = np.take_along_axis(near, which, axis=1) if n_queries else \
        np.zeros((0, n_rows), dtype=int)
    counts = np.clip(base + rng.integers(-3, 4, (n_queries, n_rows)),
                     0, n_cells)
    return n_cells, config, variation, sweep, thresholds, counts


def _arrays(n_cells, config, variation, n_rows):
    arrays = []
    for cls in (CamArray, _DenseArray):
        array = cls(rows=n_rows, cols=n_cells, **config)
        if variation is not None:
            array._variation = CurrentDomainVariation(
                sigma_rel=array.variation.sigma_rel, **variation)
        arrays.append(array)
    return arrays


def _search(array, sweep, queries, thresholds, counts):
    search = array.search_sweep if sweep else array.search_batch
    keys = [(q, 7) for q in range(queries.shape[0])]
    return search(queries, thresholds, MatchMode.ED_STAR, noise_keys=keys,
                  precomputed_counts=counts)


@settings(max_examples=300, deadline=None)
@given(pass_cases())
def test_pruned_pass_equals_dense_pass(case):
    n_cells, config, variation, sweep, thresholds, counts = case
    pruned, dense = _arrays(n_cells, config, variation, counts.shape[1])
    recorded = [record_events(array.ledger) for array in (pruned, dense)]
    queries = np.zeros((counts.shape[0], n_cells), dtype=np.uint8)
    got = _search(pruned, sweep, queries, thresholds, counts)
    want = _search(dense, sweep, queries, thresholds, counts)
    block = thresholds[:, None] if sweep else [[thresholds]]
    oracle = pruned.sense_amp.decide_sweep(got.v_ml, block, n_cells)
    assert np.array_equal(got.matches, oracle if sweep else oracle[0])
    assert np.array_equal(got.matches, want.matches)
    assert np.array_equal(got.v_ml, want.v_ml)
    assert events_equal(*recorded)


@pytest.mark.parametrize("domain", ["charge", "current"])
def test_zero_variation_decides_like_an_ideal_array(domain):
    rng = np.random.default_rng(5)
    segments = rng.integers(0, 4, (8, 32), dtype=np.uint8)
    reads = segments.copy()
    for q in range(8):
        flips = rng.choice(32, q, replace=False)
        reads[q, flips] = (reads[q, flips] + 1) % 4
    noisy = CamArray(8, 32, domain=domain, sigma_rel=0.0)
    ideal = CamArray(8, 32, domain=domain, noisy=False)
    for array in (noisy, ideal):
        array.store(segments)
    for threshold in (0, 3, 8):
        got = noisy.search_batch(reads, threshold)
        want = ideal.search_batch(reads, threshold)
        assert np.array_equal(got.matches, want.matches)
        assert np.array_equal(got.v_ml, want.v_ml)


def test_paper_geometry_draws_no_noise_up_to_t16(monkeypatch):
    """At 256x256 with a midpoint V_ref no ASMCap level is in band."""
    import repro.cam.array as array_module

    drawn = []
    real = array_module.standard_normals

    def counting(states, n):
        out = real(states, n)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(array_module, "standard_normals", counting)
    array = CamArray(4, 256)
    counts = np.repeat(np.arange(257), 4).reshape(-1, 4)
    queries = np.zeros((counts.shape[0], 256), dtype=np.uint8)
    array.search_sweep(queries, np.arange(17), precomputed_counts=counts)
    assert drawn == []
    # T = 32 puts levels 32-33 in band, and only those.
    result = array.search_batch(queries, 32, precomputed_counts=counts)
    assert sum(drawn) == np.isin(counts, (32, 33)).sum()
    assert np.array_equal(
        result.matches,
        array.sense_amp.decide_sweep(result.v_ml, [[32]], 256)[0])


#: The base pass and the NR = 2 rotations of both directions.
ROTATIONS = (0, -2, -1, 1, 2)


@pytest.mark.parametrize("condition", ["A", "B"])
def test_matcher_flows_match_the_unpruned_reference(condition):
    """Full ED*/HDAC/TASR and EDAM sweeps, and current-domain rotated
    pass blocks (EDAM's Sequence Rotation): decisions and ledgers."""
    dataset = build_dataset(condition, n_reads=24, read_length=64,
                            n_segments=16, seed=3)
    reads = np.stack([record.read.codes for record in dataset.reads])
    keys = np.arange(reads.shape[0])
    thresholds = np.arange(0, 17, 2)
    runs = []
    for cls in (CamArray, _DenseArray):
        asm_array = cls(rows=16, cols=64, seed=4)
        asm_events = record_events(asm_array.ledger)
        asm_array.store(dataset.segments)
        asm = AsmCapMatcher(asm_array, dataset.model, seed=5)
        edam_array = cls(rows=16, cols=64, domain="current", seed=6)
        edam_events = record_events(edam_array.ledger)
        edam = EdamMatcher(edam_array)
        edam.store(dataset.segments)
        rotated = edam_array.mismatch_counts_batch(
            reads, MatchMode.ED_STAR, rotations=ROTATIONS)
        runs.append((
            asm.match_sweep(reads, thresholds).decisions,
            np.stack([asm.match_batch(reads, t).decisions
                      for t in thresholds.tolist()]),
            edam.match_sweep(reads, thresholds),
            np.stack([edam_array.search_batch(
                reads, t, [MatchMode.ED_STAR] * len(ROTATIONS),
                noise_keys=[pass_keys(keys, PASS_ROTATION + r)
                            for r in ROTATIONS],
                precomputed_counts=rotated, rotation=ROTATIONS).matches
                for t in thresholds.tolist()]),
            asm_events, edam_events,
        ))
    (*got, got_asm, got_edam), (*want, want_asm, want_edam) = runs
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert events_equal(got_asm, want_asm)
    assert events_equal(got_edam, want_edam)


def test_replace_keeps_lazy_voltages():
    array = CamArray(4, 32, domain="current")
    array.store(np.zeros((4, 32), dtype=np.uint8))
    queries = np.ones((3, 32), dtype=np.uint8)
    result = array.search_batch(queries, 31)
    replaced = dataclasses.replace(result, matches=~result.matches)
    assert np.array_equal(replaced.v_ml, result.v_ml)
    assert np.array_equal(replaced.matches, ~result.matches)


@pytest.mark.parametrize("domain", ["charge", "current"])
def test_level_table_is_built_once_at_the_first_pass(domain, monkeypatch):
    """The per-level ``(V_ideal, σ, half-width)`` table is computed at
    the first pass (after any post-construction variation swap, as the
    property test above does) and reused by every later pass."""
    array = CamArray(4, 32, domain=domain, seed=2)
    array.store(np.zeros((4, 32), dtype=np.uint8))
    calls = []
    real = type(array.variation).sigma_vml

    def counting(self, levels, n_cells):
        calls.append(np.shape(levels))
        return real(self, levels, n_cells)

    monkeypatch.setattr(type(array.variation), "sigma_vml", counting)
    queries = np.zeros((3, 32), dtype=np.uint8)
    first = array.search_batch(queries, 4)
    for threshold in (0, 8, 16):
        array.search_batch(queries, threshold)
    array.search_sweep(queries, np.arange(5))
    assert calls == [(33,)]
    again = array.search_batch(queries, 4)
    assert np.array_equal(first.matches, again.matches)
