"""Catalog-served sessions are bit-identical to freshly encoded ones.

The standing contract of the reference store: a mapping session over
a catalog-opened (mmap, ``n_encodes == 0``) reference produces
bit-identical decisions, costs and reports to one over a freshly
encoded reference — on the batched and the sharded engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cam.array import StoredReference
from repro.errors import CamConfigError, RefStoreError, ServiceError
from repro.genome.edits import ErrorModel
from repro.refstore import (
    ReferenceCatalog,
    open_stored_reference,
    save_stored_reference,
)
from repro.service.frontend import MappingFrontend
from repro.service.stream import StreamingMappingService

THRESHOLD = 8

ENGINES = ["batched", "sharded"]


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    segments = rng.integers(0, 4, size=(48, 80), dtype=np.uint8)
    model = ErrorModel(substitution=0.02, insertion=0.01, deletion=0.01)
    reads = [segments[(i * 5) % 48] for i in range(25)]
    return segments, model, reads


@pytest.fixture(scope="module")
def catalog(workload, tmp_path_factory):
    segments, _, _ = workload
    root = tmp_path_factory.mktemp("catalog")
    rng = np.random.default_rng(5)
    other = rng.integers(0, 4, size=(32, 80), dtype=np.uint8)
    with ReferenceCatalog() as cat:
        cat.store("main", StoredReference.encode(segments),
                  root / "main.asmcap")
        cat.store("other", StoredReference.encode(other),
                  root / "other.asmcap")
        yield cat


def _reports_identical(a, b) -> None:
    assert a.n_reads == b.n_reads
    assert a.n_mapped == b.n_mapped
    assert a.total_energy_joules == b.total_energy_joules
    assert a.total_latency_ns == b.total_latency_ns
    assert ([m.matched_rows for m in a.mappings]
            == [m.matched_rows for m in b.mappings])
    assert ([m.outcome.n_searches for m in a.mappings]
            == [m.outcome.n_searches for m in b.mappings])


class TestStreamingService:
    def _run(self, source, workload, engine, catalog=None):
        _, model, reads = workload
        with StreamingMappingService(
                source, model, threshold=THRESHOLD, engine=engine,
                n_shards=(2 if engine == "sharded" else None),
                micro_batch=4, seed=3, catalog=catalog) as service:
            service.submit_many(reads)
            return service.drain()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_catalog_session_matches_fresh_encode(self, workload,
                                                  catalog, engine):
        segments = workload[0]
        fresh = self._run(segments, workload, engine)
        served = self._run("main", workload, engine, catalog=catalog)
        _reports_identical(served, fresh)
        assert catalog.stats().pinned_count == 0  # close released it

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stored_reference_matches_fresh_encode(self, workload,
                                                   tmp_path, engine):
        segments = workload[0]
        path = tmp_path / "ref.asmcap"
        save_stored_reference(path, StoredReference.encode(segments))
        fresh = self._run(segments, workload, engine)
        with open_stored_reference(path) as mapped:
            served = self._run(mapped.reference, workload, engine)
            assert mapped.reference.n_encodes == 0
        _reports_identical(served, fresh)

    def test_name_without_catalog_rejected(self, workload):
        _, model, _ = workload
        with pytest.raises(CamConfigError, match="needs catalog="):
            StreamingMappingService("main", model, threshold=THRESHOLD)

    def test_catalog_without_name_rejected(self, workload, catalog):
        segments, model, _ = workload
        with pytest.raises(CamConfigError, match="reference name"):
            StreamingMappingService(segments, model,
                                    threshold=THRESHOLD,
                                    catalog=catalog)

    def test_unknown_name_surfaces_catalog_error(self, workload,
                                                 catalog):
        _, model, _ = workload
        with pytest.raises(RefStoreError, match="ghost"):
            StreamingMappingService("ghost", model, threshold=THRESHOLD,
                                    catalog=catalog)
        assert catalog.stats().pinned_count == 0

    def test_unsealed_stored_reference_rejected(self, workload):
        _, model, _ = workload
        with pytest.raises(CamConfigError, match="sealed"):
            StreamingMappingService(StoredReference(rows=4, cols=8),
                                    model, threshold=THRESHOLD)


class TestEngineFailure:
    def test_close_releases_lease_and_pool_after_failure(self, workload,
                                                         catalog):
        """A failed service still releases its catalog pin and its
        shard fan-out pool on close."""
        _, model, reads = workload
        service = StreamingMappingService(
            "main", model, threshold=THRESHOLD, engine="sharded",
            n_shards=2, micro_batch=4, seed=3, catalog=catalog)
        original = service.pipeline.run

        def flaky(batch, *args, **kwargs):
            if kwargs["first_read_index"] >= 4:
                raise RuntimeError("array fire")
            return original(batch, *args, **kwargs)

        service.pipeline.run = flaky
        with pytest.raises(RuntimeError, match="array fire"):
            service.submit_many(reads)
        assert catalog.stats().pinned_count == 1
        with pytest.raises(ServiceError, match="dispatch failed"):
            service.close()
        assert service.closed
        assert catalog.stats().pinned_count == 0
        assert service.pipeline._pool is None
        with pytest.raises(ServiceError):
            service.submit(reads[0])


class TestFrontend:
    def _base_report(self, workload, engine):
        segments, model, reads = workload
        with MappingFrontend(
                segments, model, engine=engine,
                n_shards=(2 if engine == "sharded" else None)) as frontend:
            session = frontend.session(threshold=THRESHOLD, seed=3,
                                       micro_batch=4)
            session.submit_many(reads)
            return session.close()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_catalog_sessions_match_fresh_encode(self, workload,
                                                 catalog, engine):
        _, model, reads = workload
        fresh = self._base_report(workload, engine)
        with MappingFrontend(
                None, model, engine=engine,
                n_shards=(2 if engine == "sharded" else None),
                catalog=catalog) as frontend:
            main = frontend.session(threshold=THRESHOLD, seed=3,
                                    micro_batch=4, reference="main")
            other = frontend.session(threshold=THRESHOLD, seed=3,
                                     micro_batch=4, reference="other")
            for read in reads:
                main.submit(read)
                other.submit(read)
            served = main.close()
            other_report = other.close()
            assert frontend.encode_count() == 0
            assert frontend.cols is None
            assert frontend.catalog is catalog
        _reports_identical(served, fresh)
        # The tenant on the other reference ran its own geometry.
        assert other_report.n_reads == len(reads)
        assert catalog.stats().pinned_count == 0

    def test_two_tenants_share_one_opened_reference(self, workload,
                                                    catalog):
        _, model, reads = workload
        before = catalog.stats()
        with MappingFrontend(None, model, engine="sharded", n_shards=2,
                             catalog=catalog) as frontend:
            first = frontend.session(threshold=THRESHOLD, seed=3,
                                     micro_batch=4, reference="main")
            second = frontend.session(threshold=THRESHOLD, seed=11,
                                      micro_batch=5, reference="main")
            first.submit_many(reads)
            second.submit_many(reads[:13])
            first.close()
            second.close()
            shards = frontend.stored_references
            assert len(shards) == 2  # one open, one slice pass
            assert all(s.n_encodes == 0 for s in shards)
        after = catalog.stats()
        # Both sessions rode one borrow: exactly one open (hit or
        # miss), not two.
        assert (after.hits + after.misses
                - before.hits - before.misses) == 1
        assert after.pinned_count == 0

    @pytest.mark.parametrize("engine", ["batched", "sharded"])
    def test_stored_reference_frontend(self, workload, engine):
        """A sealed StoredReference serves a frontend like its segments
        do, adopted with no further encode passes."""
        segments, model, reads = workload
        reference = StoredReference.encode(segments)
        kwargs = {"engine": engine,
                  "n_shards": (2 if engine == "sharded" else None)}
        with MappingFrontend(segments, model, **kwargs) as frontend:
            fresh = [frontend.session(threshold=THRESHOLD, seed=seed,
                                      micro_batch=4) for seed in (3, 11)]
            for session in fresh:
                session.submit_many(reads)
            fresh = [session.close() for session in fresh]
        with MappingFrontend(reference, model, **kwargs) as frontend:
            assert frontend.cols == segments.shape[1]
            assert frontend.n_shards == (2 if engine == "sharded" else 1)
            served = [frontend.session(threshold=THRESHOLD, seed=seed,
                                       micro_batch=4) for seed in (3, 11)]
            assert frontend.encode_count() == reference.n_encodes == 1
            for session in served:
                session.submit_many(reads)
            served = [session.close() for session in served]
            assert frontend.encode_count() == reference.n_encodes == 1
        for ours, theirs in zip(served, fresh, strict=True):
            _reports_identical(ours, theirs)

    def test_unsealed_stored_reference_frontend_rejected(self, workload):
        _, model, _ = workload
        with pytest.raises(CamConfigError, match="sealed"):
            MappingFrontend(StoredReference(rows=4, cols=8), model)

    def test_catalog_frontend_rejects_segments(self, workload, catalog):
        segments, model, _ = workload
        with pytest.raises(CamConfigError, match="construction-time"):
            MappingFrontend(segments, model, catalog=catalog)
        with pytest.raises(CamConfigError, match="segments is required"):
            MappingFrontend(None, model)

    def test_session_reference_knob_validated(self, workload, catalog):
        segments, model, _ = workload
        with MappingFrontend(None, model, catalog=catalog) as frontend:
            with pytest.raises(ServiceError, match="reference=<name>"):
                frontend.session(threshold=THRESHOLD)
            with pytest.raises(RefStoreError, match="ghost"):
                frontend.session(threshold=THRESHOLD, reference="ghost")
        with MappingFrontend(segments, model) as frontend:
            with pytest.raises(ServiceError, match="catalog frontend"):
                frontend.session(threshold=THRESHOLD, reference="main")

    def test_close_releases_pins_but_not_catalog(self, workload,
                                                 catalog):
        _, model, reads = workload
        frontend = MappingFrontend(None, model, catalog=catalog)
        session = frontend.session(threshold=THRESHOLD, seed=3,
                                   reference="main")
        session.submit_many(reads[:5])
        session.close()
        assert catalog.stats().pinned_count == 1  # frontend still pins
        frontend.close()
        assert catalog.stats().pinned_count == 0
        with catalog.borrow("main") as lease:  # catalog stays usable
            assert lease.reference.sealed
