"""Block-drawn edit injection against the per-base scan it replaced.

:func:`inject_edits` finds each event with one block ``random(n)``
draw, rewinds the generator and redraws only the doubles up to the
event.  The oracle below is the per-base scan (one ``random()`` per
base), kept verbatim: both must return the same codes and plan and
leave the generator in the same state, so the next ``random()`` and
``integers()`` draws — what the following read is built from — agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome import alphabet
from repro.genome.edits import (
    Edit,
    EditKind,
    EditPlan,
    ErrorModel,
    inject_edits,
)
from repro.genome.sequence import DnaSequence

MODELS = {
    "A": ErrorModel.condition_a(),
    "B": ErrorModel.condition_b(),
    "dense": ErrorModel(substitution=0.05, insertion=0.05, deletion=0.05,
                        burst_prob=0.9),
}


def scan_oracle(sequence: DnaSequence, model: ErrorModel,
                rng: np.random.Generator) -> tuple[DnaSequence, EditPlan]:
    """The per-base injection scan, one event draw per base."""
    source = sequence.codes
    out: list[int] = []
    plan = EditPlan()
    p_sub, p_ins, p_del = model.substitution, model.insertion, model.deletion
    i = 0
    n = len(source)
    while i < n:
        x = rng.random()
        if x < p_sub:
            new_code = int((int(source[i])
                            + rng.integers(1, alphabet.ALPHABET_SIZE))
                           % alphabet.ALPHABET_SIZE)
            plan.edits.append(Edit(EditKind.SUBSTITUTION, i,
                                   alphabet.CODE_TO_BASE[new_code]))
            out.append(new_code)
            i += 1
        elif x < p_sub + p_ins:
            while True:
                code = int(rng.integers(0, alphabet.ALPHABET_SIZE))
                plan.edits.append(Edit(EditKind.INSERTION, i,
                                       alphabet.CODE_TO_BASE[code]))
                out.append(code)
                if rng.random() >= model.burst_prob:
                    break
            out.append(int(source[i]))
            i += 1
        elif x < p_sub + p_ins + p_del:
            while i < n:
                plan.edits.append(Edit(EditKind.DELETION, i,
                                       alphabet.CODE_TO_BASE[int(source[i])]))
                i += 1
                if rng.random() >= model.burst_prob:
                    break
        else:
            out.append(int(source[i]))
            i += 1
    return DnaSequence(np.array(out, dtype=np.uint8)), plan


def _assert_same_stream(seed: int, length: int, model: ErrorModel,
                        pre_draw: bool) -> None:
    source = DnaSequence(
        np.random.default_rng(seed ^ 0x5EED).integers(0, 4, length)
        .astype(np.uint8))
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    if pre_draw:
        # Leave a buffered uint32 half-word behind, as a small-range
        # integers() call does between reads.
        for rng in rngs:
            rng.integers(0, 7)
    got = inject_edits(source, model, rngs[0])
    want = scan_oracle(source, model, rngs[1])
    assert np.array_equal(got[0].codes, want[0].codes)
    assert got[0].codes.dtype == want[0].codes.dtype
    assert got[1].edits == want[1].edits
    assert rngs[0].random() == rngs[1].random()
    assert rngs[0].integers(0, 4, 5).tolist() \
        == rngs[1].integers(0, 4, 5).tolist()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 300),
       model=st.sampled_from(sorted(MODELS)), pre_draw=st.booleans())
def test_block_draw_equals_scan(seed, length, model, pre_draw):
    _assert_same_stream(seed, length, MODELS[model], pre_draw)


def test_error_free_model_consumes_one_double_per_base():
    _assert_same_stream(3, 200, ErrorModel(), pre_draw=True)


def test_event_on_the_last_base():
    """An event at the window's last position ends the scan."""
    model = MODELS["dense"]
    for seed in range(200):
        _assert_same_stream(seed, 2, model, pre_draw=seed % 2 == 0)


@pytest.mark.slow
@pytest.mark.parametrize("condition", ["A", "B"])
def test_fig7_scale_soak(condition):
    """96 reads of 256 bases plus sampler slack, 8 seeds, one generator
    per seed shared across the reads as the read sampler shares it."""
    model = MODELS[condition]
    for seed in range(8):
        rng_got = np.random.default_rng(seed)
        rng_want = np.random.default_rng(seed)
        source_rng = np.random.default_rng(seed + 1000)
        for _ in range(96):
            source = DnaSequence(
                source_rng.integers(0, 4, 256 + 24).astype(np.uint8))
            rng_got.integers(0, 128)
            rng_want.integers(0, 128)
            got = inject_edits(source, model, rng_got)
            want = scan_oracle(source, model, rng_want)
            assert np.array_equal(got[0].codes, want[0].codes)
            assert got[1].edits == want[1].edits
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
