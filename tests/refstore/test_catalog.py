"""Tests for the byte-budgeted, pin-aware reference catalog.

The invariants a multi-tenant service leans on: lazy single opens,
LRU eviction that respects the byte budget, and — above all — that
no sweep or explicit evict ever unmaps a reference while a lease
pins it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cam.array import StoredReference
from repro.errors import RefStoreError
from repro.refstore import ReferenceCatalog, save_stored_reference


def _resident(catalog) -> "tuple[str, ...]":
    """Names the catalog holds mapped, in registration order."""
    return tuple(name for name, entry in catalog._entries.items()
                 if entry.mapped is not None)


def _reference(seed: int, n_rows: int = 16,
               cols: int = 24) -> StoredReference:
    rng = np.random.default_rng(seed)
    return StoredReference.encode(
        rng.integers(0, 4, size=(n_rows, cols), dtype=np.uint8)
    )


@pytest.fixture()
def catalog(tmp_path):
    """A catalog holding three equal-size references a/b/c."""
    cat = ReferenceCatalog()
    for i, name in enumerate(("a", "b", "c")):
        cat.store(name, _reference(i), tmp_path / f"{name}.asmcap")
    yield cat
    if not cat._closed:
        cat.close()


def _store_size(tmp_path) -> int:
    path = tmp_path / "probe.asmcap"
    return save_stored_reference(path, _reference(99))


class TestRegistration:
    def test_store_then_borrow(self, catalog):
        assert catalog.names() == ("a", "b", "c")
        assert "a" in catalog and "nope" not in catalog
        assert list(catalog) == ["a", "b", "c"]
        with catalog.borrow("a") as lease:
            assert lease.name == "a"
            assert lease.reference.n_encodes == 0
            assert lease.nbytes > 0

    def test_add_requires_existing_file(self, catalog, tmp_path):
        with pytest.raises(RefStoreError, match="no reference store"):
            catalog.add("d", tmp_path / "missing.asmcap")

    def test_duplicate_names_rejected(self, catalog, tmp_path):
        with pytest.raises(RefStoreError, match="already registered"):
            catalog.add("a", tmp_path / "a.asmcap")
        with pytest.raises(RefStoreError, match="already registered"):
            catalog.store("a", _reference(9), tmp_path / "a2.asmcap")

    def test_unknown_name_lists_registered(self, catalog):
        with pytest.raises(RefStoreError, match="'a', 'b', 'c'"):
            catalog.borrow("ghost")
        with pytest.raises(RefStoreError, match="unknown reference"):
            catalog.evict("ghost")

    def test_registration_is_lazy(self, catalog):
        assert _resident(catalog) == ()
        assert catalog.stats().misses == 0

    def test_corrupt_file_fails_on_borrow(self, tmp_path):
        path = tmp_path / "bad.asmcap"
        save_stored_reference(path, _reference(1))
        with open(path, "r+b") as handle:
            handle.write(b"XXXXXXXX")
        cat = ReferenceCatalog()
        cat.add("bad", path)  # registration validates existence only
        with pytest.raises(RefStoreError, match="bad magic"):
            cat.borrow("bad")
        cat.close()


class TestStats:
    def test_hit_miss_accounting(self, catalog):
        catalog.borrow("a").close()
        catalog.borrow("a").close()
        catalog.borrow("b").close()
        stats = catalog.stats()
        assert stats.misses == 2      # first opens of a and b
        assert stats.hits == 1        # second borrow of a
        assert stats.resident_count == 2
        assert stats.resident_bytes > 0
        assert stats.pinned_count == 0
        assert stats.byte_budget is None
        assert stats.open_seconds_total >= stats.open_seconds_max > 0.0

    def test_failed_opens_counted_separately_from_misses(
            self, catalog, tmp_path):
        # Regression: a borrow whose open raises used to look like a
        # cheap miss-free catalog; it must count as an open failure,
        # and never as a miss (the caller got an error, not a mapping).
        path = tmp_path / "bad.asmcap"
        save_stored_reference(path, _reference(7))
        with open(path, "r+b") as handle:
            handle.write(b"XXXXXXXX")
        catalog.add("bad", path)
        for _ in range(2):
            with pytest.raises(RefStoreError, match="bad magic"):
                catalog.borrow("bad")
        stats = catalog.stats()
        assert stats.open_failures == 2
        assert stats.misses == 0
        assert stats.hits == 0
        # Failed opens never touch the timed miss path.
        assert stats.open_seconds_total == 0.0
        # A later healthy borrow is an ordinary miss again.
        catalog.borrow("a").close()
        stats = catalog.stats()
        assert stats.open_failures == 2
        assert stats.misses == 1

    def test_open_failures_zero_on_healthy_catalog(self, catalog):
        catalog.borrow("a").close()
        catalog.borrow("a").close()
        assert catalog.stats().open_failures == 0

    def test_pinned_count_follows_leases(self, catalog):
        lease_a = catalog.borrow("a")
        lease_a2 = catalog.borrow("a")
        lease_b = catalog.borrow("b")
        assert catalog.stats().pinned_count == 2
        lease_a.close()
        assert catalog.stats().pinned_count == 2  # a still pinned once
        lease_a2.close()
        lease_b.close()
        assert catalog.stats().pinned_count == 0


class TestEviction:
    def test_explicit_evict_unmaps(self, catalog):
        catalog.borrow("a").close()
        assert catalog.evict("a") is True
        assert _resident(catalog) == ()
        assert catalog.evict("a") is False  # already out
        assert catalog.stats().evictions == 1
        # Evicted references reopen on the next borrow.
        with catalog.borrow("a") as lease:
            assert lease.reference.n_encodes == 0
        assert catalog.stats().misses == 2

    def test_evict_refuses_pinned(self, catalog):
        with catalog.borrow("a"):
            with pytest.raises(RefStoreError,
                               match="pinned by 1 open lease"):
                catalog.evict("a")
        assert catalog.evict("a") is True  # lease closed: now fine

    def test_budget_sweeps_lru(self, tmp_path):
        size = _store_size(tmp_path)
        cat = ReferenceCatalog(byte_budget=2 * size)
        for i, name in enumerate(("a", "b", "c")):
            cat.store(name, _reference(i), tmp_path / f"{name}.asmcap")
        cat.borrow("a").close()
        cat.borrow("b").close()
        assert set(_resident(cat)) == {"a", "b"}
        # Third open exceeds the budget: the LRU entry (a) goes.
        cat.borrow("c").close()
        assert set(_resident(cat)) == {"b", "c"}
        # Touching b makes c the LRU victim of the next sweep.
        cat.borrow("b").close()
        cat.borrow("a").close()
        assert set(_resident(cat)) == {"a", "b"}
        assert cat.stats().evictions == 2
        cat.close()

    def test_sweep_never_unmaps_pinned(self, tmp_path):
        size = _store_size(tmp_path)
        cat = ReferenceCatalog(byte_budget=size)  # fits exactly one
        for i, name in enumerate(("a", "b")):
            cat.store(name, _reference(i), tmp_path / f"{name}.asmcap")
        with cat.borrow("a") as lease_a:
            # b's open busts the budget, but a is pinned: the budget
            # is temporarily exceeded rather than the pin broken.
            with cat.borrow("b") as lease_b:
                assert set(_resident(cat)) == {"a", "b"}
                assert cat.stats().resident_bytes > size
                assert lease_a.reference.n_encodes == 0
                assert lease_b.reference.n_encodes == 0
            # b unpinned: the deferred sweep now evicts it (LRU).
            assert _resident(cat) == ("a",)
        cat.close()

    def test_borrowed_arrays_survive_pressure(self, tmp_path):
        size = _store_size(tmp_path)
        cat = ReferenceCatalog(byte_budget=size)
        for i, name in enumerate(("a", "b", "c")):
            cat.store(name, _reference(i), tmp_path / f"{name}.asmcap")
        with cat.borrow("a") as lease:
            before = lease.reference.encoded().segments.copy()
            cat.borrow("b").close()
            cat.borrow("c").close()
            np.testing.assert_array_equal(
                before, lease.reference.encoded().segments)
        cat.close()

    def test_bad_budget_rejected(self):
        with pytest.raises(RefStoreError, match="byte_budget"):
            ReferenceCatalog(byte_budget=0)
        with pytest.raises(RefStoreError, match="byte_budget"):
            ReferenceCatalog(byte_budget=-5)


class TestLifecycle:
    def test_lease_close_is_idempotent(self, catalog):
        lease = catalog.borrow("a")
        lease.close()
        lease.close()
        assert lease.closed
        with pytest.raises(RefStoreError, match="closed"):
            lease.reference

    def test_close_refuses_open_leases(self, catalog):
        lease = catalog.borrow("b")
        with pytest.raises(RefStoreError, match=r"\['b'\]"):
            catalog.close()
        lease.close()
        catalog.close()
        with pytest.raises(RefStoreError, match="closed"):
            catalog.borrow("a")
        with pytest.raises(RefStoreError, match="closed"):
            catalog.add("z", "anywhere")
        catalog.close()  # idempotent

    def test_context_manager(self, tmp_path):
        with ReferenceCatalog() as cat:
            cat.store("a", _reference(0), tmp_path / "a.asmcap")
            cat.borrow("a").close()
        with pytest.raises(RefStoreError, match="closed"):
            cat.borrow("a")


class TestConcurrency:
    def test_racing_borrows_under_pressure(self, tmp_path):
        """Threads hammer borrow/use/release against a tight budget.

        Every lease must keep valid arrays for its whole lifetime no
        matter how often the sweeper evicts around it.
        """
        size = _store_size(tmp_path)
        cat = ReferenceCatalog(byte_budget=size)  # max pressure
        expected = {}
        for i, name in enumerate(("a", "b", "c", "d")):
            reference = _reference(i)
            cat.store(name, reference, tmp_path / f"{name}.asmcap")
            expected[name] = reference.encoded().segments.copy()
        failures: "list[BaseException]" = []

        def worker(worker_index: int) -> None:
            names = ("a", "b", "c", "d")
            try:
                for round_index in range(25):
                    name = names[(worker_index + round_index) % 4]
                    with cat.borrow(name) as lease:
                        np.testing.assert_array_equal(
                            lease.reference.encoded().segments,
                            expected[name],
                        )
            except BaseException as exc:  # pragma: no cover - fail path
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = cat.stats()
        assert stats.pinned_count == 0
        assert stats.hits + stats.misses == 8 * 25
        assert stats.evictions > 0  # the budget actually bit
        cat.close()


@pytest.mark.slow
class TestCatalogSoak:
    def test_churn_with_live_sessions(self, tmp_path):
        """Nightly soak: tenants boot mapping services off a
        budget-squeezed catalog for many rounds while the sweeper
        evicts and reopens around them.  Every boot must reproduce
        its reference baseline bit for bit — open/evict/re-open
        churn is invisible to results.
        """
        from repro.genome.edits import ErrorModel
        from repro.service.stream import StreamingMappingService

        names = ("a", "b", "c", "d")
        model = ErrorModel(substitution=0.02, insertion=0.01,
                           deletion=0.01)
        size = _store_size(tmp_path)
        cat = ReferenceCatalog(byte_budget=size)  # max churn
        reads = {}
        baselines = {}
        for i, name in enumerate(names):
            rng = np.random.default_rng(100 + i)
            segments = rng.integers(0, 4, size=(16, 24), dtype=np.uint8)
            cat.store(name, StoredReference.encode(segments),
                      tmp_path / f"{name}.asmcap")
            reads[name] = [segments[(j * 3) % 16] for j in range(8)]
            with StreamingMappingService(
                    segments, model, threshold=4, micro_batch=3,
                    seed=5) as service:
                service.submit_many(reads[name])
                baselines[name] = service.drain()
        failures: "list[BaseException]" = []

        def identical(a, b) -> bool:
            return (
                (a.n_reads, a.n_mapped, a.total_energy_joules,
                 a.total_latency_ns)
                == (b.n_reads, b.n_mapped, b.total_energy_joules,
                    b.total_latency_ns)
                and [m.matched_rows for m in a.mappings]
                == [m.matched_rows for m in b.mappings]
            )

        def tenant(worker_index: int) -> None:
            try:
                for round_index in range(40):
                    name = names[(worker_index + round_index) % 4]
                    with StreamingMappingService(
                            name, model, threshold=4, micro_batch=3,
                            seed=5, catalog=cat) as service:
                        service.submit_many(reads[name])
                        report = service.drain()
                    assert identical(report, baselines[name]), name
            except BaseException as exc:  # pragma: no cover - fail path
                failures.append(exc)

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = cat.stats()
        assert stats.pinned_count == 0
        assert stats.hits + stats.misses == 6 * 40
        assert stats.evictions > 0  # churn actually happened
        cat.close()
