"""Exactness of the columnar mapping report and its one-call fold.

``_build_report`` keeps a batch's per-read results as columns and
computes the aggregates with array code; ``MappingReport.add(report)``
folds a later batch in with one call.  Both must reproduce, bit for
bit, the per-read Python loop they replaced: counters by plain
addition, and each float total as the left fold ``total += x`` over
the reads in order, starting from the running total.  Every assertion
is ``==``; a pairwise sum (``np.sum``) or a batch subtotal
(``total + sum(batch)``) changes the bits and fails here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import MappingReport, _build_report

TASR_LOWER_BOUND = 52


def _costs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-read costs spread over many binades, so summation order
    shows in the low bits."""
    return np.ldexp(1.0 + rng.random(n), rng.integers(-40, -25, n))


@st.composite
def batches(draw):
    """Random per-read columns and random micro-batch boundaries."""
    n_reads = draw(st.integers(0, 300))
    n_rows = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.0, 0.05, 0.3]))
    columns = {
        "decisions": rng.random((n_reads, n_rows)) < density,
        "thresholds": rng.integers(0, 33, n_reads),
        "n_searches": rng.integers(1, 12, n_reads),
        "energy": _costs(rng, n_reads),
        "latency": _costs(rng, n_reads),
        "hdac_probabilities": rng.random(n_reads),
    }
    cuts = sorted(draw(st.lists(st.integers(0, n_reads), max_size=6)))
    first = draw(st.integers(0, 10**6))
    return columns, [0, *cuts, n_reads], first


def _report(columns, start: int, stop: int, first: int) -> MappingReport:
    return _build_report(
        decisions=columns["decisions"][start:stop],
        thresholds=columns["thresholds"][start:stop],
        n_searches=columns["n_searches"][start:stop],
        energy=columns["energy"][start:stop],
        latency=columns["latency"][start:stop],
        hdac_probabilities=columns["hdac_probabilities"][start:stop],
        tasr_lower_bound=TASR_LOWER_BOUND,
        read_indices=np.arange(first + start, first + stop),
    )


def _per_read_oracle(columns, first: int):
    """The per-read Python loop: one ``+=`` per read, in read order."""
    n_mapped = n_unique = n_searches = 0
    energy = latency = 0.0
    rows = []
    for q, decisions in enumerate(columns["decisions"].tolist()):
        matched = tuple(i for i, hit in enumerate(decisions) if hit)
        rows.append((first + q, matched))
        n_mapped += int(bool(matched))
        n_unique += int(len(matched) == 1)
        n_searches += int(columns["n_searches"][q])
        energy += float(columns["energy"][q])
        latency += float(columns["latency"][q])
    return (len(rows), n_mapped, n_unique, n_searches, energy,
            latency), rows


def _totals(report: MappingReport) -> tuple:
    return (report.n_reads, report.n_mapped, report.n_unique,
            report.n_searches, report.total_energy_joules,
            report.total_latency_ns)


def _assert_mappings(report: MappingReport, columns, rows) -> None:
    mappings = report.mappings
    assert isinstance(mappings, list)
    assert len(mappings) == len(rows)
    for q, (mapping, (index, matched)) in enumerate(
            zip(mappings, rows, strict=True)):
        outcome = mapping.outcome
        assert mapping.read_index == index
        assert mapping.matched_rows == matched
        assert type(mapping.read_index) is int
        assert all(type(row) is int for row in mapping.matched_rows)
        assert outcome.threshold == columns["thresholds"][q]
        assert type(outcome.threshold) is int
        assert outcome.n_searches == columns["n_searches"][q]
        assert type(outcome.n_searches) is int
        assert outcome.energy_joules == columns["energy"][q]
        assert outcome.latency_ns == columns["latency"][q]
        assert outcome.hdac_probability == \
            columns["hdac_probabilities"][q]
        assert type(outcome.energy_joules) is float
        assert type(outcome.hdac_probability) is float
        assert outcome.tasr_lower_bound == TASR_LOWER_BOUND
        assert np.array_equal(outcome.decisions, columns["decisions"][q])


@settings(max_examples=150, deadline=None)
@given(batches())
def test_block_fold_equals_per_read_fold(case):
    columns, bounds, first = case
    totals, rows = _per_read_oracle(columns, first)
    folded = MappingReport()
    for start, stop in zip(bounds[:-1], bounds[1:], strict=True):
        folded.add(_report(columns, start, stop, first))
    assert _totals(folded) == totals
    _assert_mappings(folded, columns, rows)
    whole = _report(columns, 0, bounds[-1], first)
    assert _totals(whole) == totals
    _assert_mappings(whole, columns, rows)


@settings(max_examples=60, deadline=None)
@given(batches())
def test_fold_after_materialised_mappings_keeps_appending(case):
    """Reading ``mappings`` between folds (then mutating it) leaves the
    aggregates exact and later folds append to that list."""
    columns, bounds, first = case
    totals, rows = _per_read_oracle(columns, first)
    folded = MappingReport()
    for start, stop in zip(bounds[:-1], bounds[1:], strict=True):
        folded.add(_report(columns, start, stop, first))
        assert len(folded.mappings) == stop
    assert _totals(folded) == totals
    _assert_mappings(folded, columns, rows)


def test_left_fold_is_not_the_pairwise_sum():
    """A fixed case where the two orders differ, so the property above
    can tell them apart."""
    energy = np.ldexp(1.0 + np.arange(200) / 199.0,
                      -40 + (np.arange(200) * 7) % 16)
    loop = 0.0
    for value in energy.tolist():
        loop += value
    assert float(np.sum(energy)) != loop
    columns = {
        "decisions": np.zeros((200, 3), dtype=bool),
        "thresholds": np.zeros(200, dtype=int),
        "n_searches": np.ones(200, dtype=int),
        "energy": energy,
        "latency": energy,
        "hdac_probabilities": np.zeros(200),
    }
    folded = MappingReport()
    for start in range(0, 200, 64):
        folded.add(_report(columns, start, min(start + 64, 200), 0))
    assert folded.total_energy_joules == loop
    assert folded.total_latency_ns == loop


def test_snapshot_and_cleared_reports():
    columns = {
        "decisions": np.eye(4, 6, dtype=bool),
        "thresholds": np.full(4, 8),
        "n_searches": np.full(4, 2),
        "energy": np.array([1e-12, 2e-12, 3e-12, 4e-12]),
        "latency": np.full(4, 9.0),
        "hdac_probabilities": np.zeros(4),
    }
    live = MappingReport()
    live.add(_report(columns, 0, 2, 0))
    snapshot = live.snapshot()
    # The shared column blocks are frozen.
    assert not snapshot.mappings[0].outcome.decisions.flags.writeable
    snapshot.mappings.clear()
    live.add(_report(columns, 2, 4, 0))
    assert [m.read_index for m in live.mappings] == [0, 1, 2, 3]
    assert snapshot.n_reads == 2 and snapshot.mappings == []
    assert live.snapshot() == live
    # A report whose per-read results were cleared keeps its totals,
    # and folds them into another report as one addend.
    cleared = live.snapshot()
    cleared.clear_mappings()
    assert cleared.mappings == [] and cleared.n_reads == 4
    total = MappingReport()
    total.add(cleared)
    assert _totals(total) == _totals(cleared)


def test_reports_compare_by_value():
    """Two lazily built views of equal columns are equal reports."""
    columns = {
        "decisions": np.eye(3, 5, dtype=bool),
        "thresholds": np.full(3, 4),
        "n_searches": np.full(3, 1),
        "energy": np.array([1e-12, 2e-12, 3e-12]),
        "latency": np.full(3, 4.5),
        "hdac_probabilities": np.zeros(3),
    }
    a, b = _report(columns, 0, 3, 0), _report(columns, 0, 3, 0)
    assert a == b and a.mappings == b.mappings
    flipped = dict(columns, decisions=~columns["decisions"])
    assert _report(flipped, 0, 3, 0).mappings != a.mappings


def test_snapshots_share_the_per_read_objects():
    """Each column block builds its ``ReadMapping`` objects once:
    snapshots hold lists of their own over the same frozen objects."""
    columns = {
        "decisions": np.eye(4, 6, dtype=bool),
        "thresholds": np.full(4, 8),
        "n_searches": np.full(4, 2),
        "energy": np.array([1e-12, 2e-12, 3e-12, 4e-12]),
        "latency": np.full(4, 9.0),
        "hdac_probabilities": np.zeros(4),
    }
    live = MappingReport()
    live.add(_report(columns, 0, 2, 0))
    live.add(_report(columns, 2, 4, 0))
    first, second = live.snapshot(), live.snapshot()
    assert first.mappings is not second.mappings
    assert all(a is b for a, b in zip(first.mappings, second.mappings,
                                      strict=True))
    assert first.mappings[3] is live.snapshot().mappings[3]
