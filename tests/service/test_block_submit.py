"""Block submit: ``submit_many`` validates and accepts whole slices.

``MappingSession.submit_many`` pulls at most the buffer's free room
from its iterable, checks that slice with one ``as_read_codes`` call
and one shape check, and accepts it under one lock hold.  Per read,
the outcome must be :meth:`submit`'s: the reports of any split of one
stream across ``submit`` and ``submit_many`` — fed with lists,
generators, 2-D arrays or ``ReadRecord``\\ s — are ``==``, with the same
ledger event counts; a bad read at slice position ``k`` accepts
exactly ``k`` reads and raises ``submit``'s error; a generator is
never pulled past one micro-batch.  ``stream_mapped`` rides on the same path.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CamConfigError
from repro.genome.datasets import build_dataset
from repro.service import StreamingMappingService
from repro.service.stream import stream_mapped

THRESHOLD = 3
MICRO_BATCH = 5

_DATASET = build_dataset("A", n_reads=23, read_length=64, n_segments=16,
                         seed=21)
_READS = np.stack([record.read.codes for record in _DATASET.reads])


def _service(**kwargs) -> StreamingMappingService:
    kwargs.setdefault("micro_batch", MICRO_BATCH)
    return StreamingMappingService(_DATASET.segments, _DATASET.model,
                                   threshold=THRESHOLD, seed=3, **kwargs)


def _per_read(service, reads) -> None:
    """The one-read entry, read by read: the reference feed."""
    for read in reads:
        service.submit(read)


def _feed(kind: str, start: int, stop: int):
    """Reads ``start..stop`` in one of the input forms."""
    if kind == "submit":
        return None
    if kind == "list":
        return [row for row in _READS[start:stop]]
    if kind == "generator":
        return (row for row in _READS[start:stop])
    if kind == "array":
        return _READS[start:stop]
    if kind == "records":
        return list(_DATASET.reads[start:stop])
    # int64 rows: the stacked block takes the range-checked route.
    return [row.astype(np.int64) for row in _READS[start:stop]]


_KINDS = ("submit", "list", "generator", "array", "records", "int64")


def _report_key(report):
    return (report.n_reads, report.n_mapped, report.n_unique,
            report.n_searches, report.total_energy_joules,
            report.total_latency_ns,
            [(m.read_index, m.matched_rows, m.outcome.energy_joules,
              m.outcome.latency_ns, m.outcome.n_searches)
             for m in report.mappings])


def _reference():
    service = _service()
    _per_read(service, _READS)
    stats = service.stats()
    return _report_key(service.close()), stats


_REFERENCE = _reference()


class TestRandomSplits:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from(_KINDS)),
                    max_size=6))
    def test_any_split_equals_the_per_read_feed(self, cuts):
        """Reports ``==`` and ledger event counts equal, whatever the
        split of the stream across the two entry points and forms."""
        want, want_stats = _REFERENCE
        service = _service()
        start = 0
        for size, kind in cuts:
            stop = min(start + size, _READS.shape[0])
            feed = _feed(kind, start, stop)
            if feed is None:
                _per_read(service, _READS[start:stop])
            else:
                assert service.submit_many(feed) == stop - start
            start = stop
        service.submit_many(_READS[start:])
        stats = service.stats()
        assert _report_key(service.close()) == want
        assert stats.pass_counts == want_stats.pass_counts
        assert stats.n_searches == want_stats.n_searches
        assert stats.batches_dispatched == want_stats.batches_dispatched
        assert stats.total_energy_joules == want_stats.total_energy_joules

    def test_an_empty_iterable_accepts_nothing(self):
        service = _service()
        assert service.submit_many([]) == 0
        assert service.submit_many(iter(())) == 0
        assert service.stats().reads_submitted == 0


class TestBadReadInASlice:
    @pytest.mark.parametrize("position", [0, 2, MICRO_BATCH - 1])
    @pytest.mark.parametrize("bad, error", [
        (np.full(64, 256), "0..255"),
        (np.zeros(64, dtype=float), "integers"),
        (np.zeros(63, dtype=np.uint8), "width"),
    ])
    def test_exactly_k_reads_are_accepted(self, position, bad, error):
        reads = [row for row in _READS[:MICRO_BATCH]]
        reads[position] = bad
        service = _service()
        with pytest.raises(CamConfigError, match=error) as raised:
            service.submit_many(reads)
        assert service.stats().reads_submitted == position
        with pytest.raises(CamConfigError) as alone:
            _service().submit(bad)
        assert str(raised.value) == str(alone.value)

    def test_accepted_prefix_maps_like_the_per_read_feed(self):
        """The good prefix is the stream's first reads, keyed 0..k-1."""
        reads = [row for row in _READS[:MICRO_BATCH]]
        reads[3] = np.full(64, 9.5)
        service = _service()
        with pytest.raises(CamConfigError):
            service.submit_many(reads)
        service.submit_many(_READS[3:])
        reference = _service()
        _per_read(reference, _READS)
        assert _report_key(service.close()) == _report_key(reference.close())

    def test_a_bool_read_is_rejected_even_beside_int_reads(self):
        """Stacking would up-cast a bool row; the mixed-dtype slice is
        checked read by read instead, as ``submit`` checks it."""
        reads = [_READS[0].astype(np.int64), _READS[1] > 1,
                 _READS[2].astype(np.int64)]
        service = _service()
        with pytest.raises(CamConfigError, match="integers"):
            service.submit_many(reads)
        assert service.stats().reads_submitted == 1


class TestLaziness:
    def test_a_generator_is_never_pulled_past_one_micro_batch(self):
        service = _service()
        ahead = []

        def reads():
            for index, row in enumerate(_READS):
                ahead.append(index - service.stats().reads_submitted)
                yield row

        assert service.submit_many(reads()) == _READS.shape[0]
        assert max(ahead) == MICRO_BATCH - 1

    def test_a_bad_read_after_whole_batches(self):
        """Whole slices before the bad read ran; the slice holding it
        keeps its good prefix buffered."""
        service = _service()
        with pytest.raises(CamConfigError):
            service.submit_many(itertools.chain(
                itertools.islice(itertools.cycle(_READS), 12),
                [np.full(64, -1)]))
        stats = service.stats()
        assert stats.reads_submitted == 12
        assert stats.batches_dispatched == 2
        assert stats.reads_in_flight == 12 - 2 * MICRO_BATCH


class TestStreamMapped:
    @pytest.mark.parametrize("micro_batch", [1, 4, MICRO_BATCH, 64])
    @pytest.mark.parametrize("kind", ["list", "generator", "array"])
    def test_yields_the_per_read_feed_mappings(self, micro_batch, kind):
        service = _service(micro_batch=micro_batch, retain_mappings=False)
        got = [(m.read_index, m.matched_rows, m.outcome.energy_joules)
               for m in stream_mapped(service, _feed(kind, 0, 23))]
        reference = _service(micro_batch=micro_batch)
        _per_read(reference, _READS)
        want = [(m.read_index, m.matched_rows, m.outcome.energy_joules)
                for m in reference.drain().mappings]
        assert got == want
        assert service.stats().batches_dispatched \
            == reference.stats().batches_dispatched
