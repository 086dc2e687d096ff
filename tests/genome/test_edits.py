"""Tests for edit injection: rates, provenance, burst behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit_distance import edit_distance
from repro.errors import EditModelError
from repro.genome.edits import EditKind, ErrorModel, inject_edits
from repro.genome.generator import generate_reference
from repro.genome.sequence import DnaSequence


def _count(plan, *kinds) -> int:
    """Edits of the given kinds in a plan."""
    return sum(edit.kind in kinds for edit in plan.edits)


class TestErrorModel:
    def test_condition_a_rates(self):
        model = ErrorModel.condition_a()
        assert model.substitution == pytest.approx(0.01)
        assert model.insertion == pytest.approx(0.0005)
        assert model.deletion == pytest.approx(0.0005)
        assert model.indel_rate == pytest.approx(0.001)

    def test_condition_b_rates(self):
        model = ErrorModel.condition_b()
        assert model.substitution == pytest.approx(0.001)
        assert model.indel_rate == pytest.approx(0.01)

    def test_negative_rate_rejected(self):
        with pytest.raises(EditModelError):
            ErrorModel(substitution=-0.1)

    def test_total_rate_must_stay_below_one(self):
        with pytest.raises(EditModelError):
            ErrorModel(substitution=0.5, insertion=0.3, deletion=0.3)


class TestInjection:
    def test_no_errors_is_identity(self, rng):
        seq = generate_reference(500, seed=0)
        edited, plan = inject_edits(seq, ErrorModel(), rng)
        assert edited == seq
        assert len(plan) == 0

    def test_substitutions_always_change_base(self, rng):
        seq = generate_reference(2000, seed=1)
        model = ErrorModel(substitution=0.05)
        edited, plan = inject_edits(seq, model, rng)
        assert len(edited) == len(seq)  # substitutions preserve length
        assert _count(plan, EditKind.SUBSTITUTION) > 0
        assert _count(plan, EditKind.INSERTION, EditKind.DELETION) == 0
        # Every recorded substitution really differs from the original.
        for edit in plan.edits:
            original = str(seq)[edit.position]
            assert edit.base != original

    def test_substitution_count_matches_hamming(self, rng):
        seq = generate_reference(2000, seed=2)
        model = ErrorModel(substitution=0.05)
        edited, plan = inject_edits(seq, model, rng)
        differences = int(np.count_nonzero(seq.codes != edited.codes))
        assert differences == _count(plan, EditKind.SUBSTITUTION)

    def test_deletions_shorten(self, rng):
        seq = generate_reference(1000, seed=3)
        model = ErrorModel(deletion=0.05)
        edited, plan = inject_edits(seq, model, rng)
        assert len(edited) == len(seq) - _count(plan, EditKind.DELETION)

    def test_insertions_lengthen(self, rng):
        seq = generate_reference(1000, seed=4)
        model = ErrorModel(insertion=0.05)
        edited, plan = inject_edits(seq, model, rng)
        assert len(edited) == len(seq) + _count(plan, EditKind.INSERTION)

    def test_rates_are_respected(self, rng):
        seq = generate_reference(100_000, seed=5, with_repeats=False)
        model = ErrorModel(substitution=0.01, insertion=0.002,
                           deletion=0.002)
        _, plan = inject_edits(seq, model, rng)
        n = len(seq)
        assert _count(plan, EditKind.SUBSTITUTION) == pytest.approx(0.01 * n, rel=0.2)
        assert _count(plan, EditKind.INSERTION) == pytest.approx(0.002 * n, rel=0.3)
        assert _count(plan, EditKind.DELETION) == pytest.approx(0.002 * n, rel=0.3)

    def test_bursts_multiply_insertions(self):
        """Geometric bursts of mean length 1/(1-p) double at p = 0.5."""
        seq = generate_reference(100_000, seed=8, with_repeats=False)
        _, plain = inject_edits(seq, ErrorModel(insertion=0.01),
                                np.random.default_rng(8))
        _, bursty = inject_edits(seq, ErrorModel(insertion=0.01,
                                                 burst_prob=0.5),
                                 np.random.default_rng(9))
        assert _count(bursty, EditKind.INSERTION) == pytest.approx(
            2 * _count(plain, EditKind.INSERTION), rel=0.15)

    def test_plan_length_matches_expected_edits(self, rng):
        """``len(plan) ~ n * (es + eid / (1 - burst_prob))``."""
        seq = generate_reference(50_000, seed=1, with_repeats=False)
        model = ErrorModel(substitution=0.01, insertion=0.004,
                           deletion=0.004, burst_prob=0.3)
        _, plan = inject_edits(seq, model, rng)
        expected = len(seq) * (model.substitution
                               + model.indel_rate / (1 - model.burst_prob))
        assert len(plan) == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("base", "ACGT")
    def test_substitutions_uniform_over_other_bases(self, base, rng):
        seq = DnaSequence(base * 30_000)
        _, plan = inject_edits(seq, ErrorModel(substitution=0.05), rng)
        replaced = [e.base for e in plan.edits]
        assert base not in replaced
        for other in set("ACGT") - {base}:
            assert replaced.count(other) / len(replaced) == pytest.approx(
                1 / 3, abs=0.04)

    def test_uniform_substitutions_ti_tv_is_half(self, rng):
        """One transition partner, two transversion partners per base."""
        seq = generate_reference(100_000, seed=4, with_repeats=False)
        edited, _ = inject_edits(seq, ErrorModel(substitution=0.02), rng)
        changed = seq.codes != edited.codes
        partner = np.array([2, 3, 0, 1])  # A<->G, C<->T
        transitions = np.count_nonzero(
            partner[seq.codes[changed]] == edited.codes[changed])
        transversions = np.count_nonzero(changed) - transitions
        assert transitions / transversions == pytest.approx(0.5, rel=0.15)

    def test_edit_distance_bounded_by_plan(self, rng):
        """True ED never exceeds the number of injected edits."""
        for seed in range(5):
            local = np.random.default_rng(seed)
            seq = generate_reference(300, seed=seed)
            model = ErrorModel(substitution=0.02, insertion=0.01,
                               deletion=0.01)
            edited, plan = inject_edits(seq, model, local)
            assert edit_distance(seq, edited) <= len(plan)

    def test_burst_deletions_are_consecutive(self):
        rng = np.random.default_rng(99)
        seq = generate_reference(5000, seed=6)
        model = ErrorModel(deletion=0.01, burst_prob=0.9)
        _, plan = inject_edits(seq, model, rng)
        deletions = [e.position for e in plan.edits
                     if e.kind is EditKind.DELETION]
        runs = sum(1 for a, b in zip(deletions, deletions[1:], strict=False) if b == a + 1)
        assert runs > 0  # with burst_prob=0.9 consecutive runs must appear

    def test_deterministic_given_rng_state(self):
        seq = generate_reference(500, seed=7)
        model = ErrorModel.condition_b()
        first, _ = inject_edits(seq, model, np.random.default_rng(1))
        second, _ = inject_edits(seq, model, np.random.default_rng(1))
        assert first == second


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_injected_plan_counts_are_consistent(seed):
    """Property: plan length decomposes into the three edit kinds."""
    rng = np.random.default_rng(seed)
    seq = DnaSequence(rng.integers(0, 4, 200).astype(np.uint8))
    model = ErrorModel(substitution=0.05, insertion=0.02, deletion=0.02,
                       burst_prob=0.3)
    _, plan = inject_edits(seq, model, rng)
    assert _count(plan, *EditKind) == len(plan)
