"""Deterministic chaos workloads, one per route.

Each :class:`ChaosScenario` is a small, fully seeded mapping workload
with a fixed route through the stack — direct segments into the
streaming service, via a saved store file, via a catalog borrow, or
through the multi-session frontend — and a declared set of applicable
fault kinds (the hook points its route actually reaches).  ``run()``
executes the workload once and returns a canonical, ``==``-comparable
projection of the final :class:`~repro.core.pipeline.MappingReport`;
the
:class:`~repro.faults.checker.InvariantChecker` compares armed runs
against the fault-free baseline bit for bit.

Scenario geometry is pinned (micro-batch size) rather than autotuned, so hit indices — and therefore which dispatch a
scheduled fault lands on — are identical on every machine.  Every
scenario issues exactly :data:`N_DISPATCHES` micro-batch dispatches
(the last one at drain time), which is the ``max_hits`` a generated
plan should use.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import CamConfigError, ReproError, ServiceError

__all__ = [
    "N_DISPATCHES",
    "SCENARIOS",
    "ChaosScenario",
    "canonical_report",
    "get_scenario",
]

#: Workload shape shared by every scenario (pinned, never autotuned).
N_READS = 18
MICRO_BATCH = 4
THRESHOLD = 6
SEED = 11
#: ceil(N_READS / MICRO_BATCH): 4 full batches + the drain-time flush.
N_DISPATCHES = 5


def _workload() -> "tuple[np.ndarray, list[np.ndarray]]":
    """The one deterministic reference + read feed every scenario maps."""
    rng = np.random.default_rng(0xC0FFEE)
    segments = rng.integers(0, 4, size=(64, 48), dtype=np.uint8)
    reads: "list[np.ndarray]" = []
    for j in range(N_READS):
        if j % 3 == 2:
            reads.append(rng.integers(0, 4, size=48, dtype=np.uint8))
        else:
            reads.append(segments[(j * 7) % 64].copy())
    return segments, reads


def _error_model():
    from repro.genome.edits import ErrorModel

    return ErrorModel(substitution=0.02, insertion=0.01, deletion=0.01)


def canonical_report(report) -> tuple:
    """A hashable, exactly-comparable projection of a mapping report.

    Counters, the float cost totals (compared bit-exactly — the
    determinism contract promises identical accumulation order), and
    every per-read decision."""
    return (
        report.n_reads,
        report.n_mapped,
        report.n_unique,
        report.n_searches,
        report.total_energy_joules,
        report.total_latency_ns,
        tuple((mapping.read_index, mapping.matched_rows)
              for mapping in report.mappings),
    )


@dataclass(frozen=True)
class ChaosScenario:
    """One fixed route through the stack plus its applicable faults."""

    name: str
    route: str                       # "stream" | "store" | "catalog"
    #                                # | "frontend"
    fault_kinds: "tuple[str, ...]"
    max_hits: int = N_DISPATCHES

    @property
    def reachable_points(self) -> "tuple[str, ...]":
        """The hook points this route actually drives — plan
        generation attaches faults here only, so schedules are rarely
        vacuous."""
        points = ("service.stream.dispatch",)
        if self.route == "store":
            points += ("refstore.save", "refstore.open")
        elif self.route == "catalog":
            points += ("refstore.save", "refstore.catalog.open")
        return points

    def run(self) -> tuple:
        with tempfile.TemporaryDirectory(prefix="asmcap-chaos-") as dir_:
            if self.route == "stream":
                return self._run_stream(None)
            if self.route == "store":
                return self._run_store(Path(dir_))
            if self.route == "catalog":
                return self._run_catalog(Path(dir_))
            if self.route == "frontend":
                return self._run_frontend()
            raise CamConfigError(f"unknown scenario route {self.route!r}")

    # -- routes --------------------------------------------------------------

    def _service(self, source, **extra):
        from repro.service.stream import StreamingMappingService

        kwargs = {
            "error_model": _error_model(), "threshold": THRESHOLD,
            "micro_batch": MICRO_BATCH, "seed": SEED,
        }
        kwargs.update(extra)
        return StreamingMappingService(source, **kwargs)

    def _run_stream(self, _) -> tuple:
        segments, reads = _workload()
        service = self._service(segments)
        try:
            service.submit_many(reads)
            return canonical_report(service.drain())
        finally:
            with contextlib.suppress(ReproError):
                service.close()

    def _run_store(self, workdir: Path) -> tuple:
        from repro.cam.array import StoredReference
        from repro.refstore.format import (
            open_stored_reference,
            save_stored_reference,
        )

        segments, reads = _workload()
        path = workdir / "reference.asmcap"
        save_stored_reference(path, StoredReference.encode(segments))
        mapped = open_stored_reference(path)
        try:
            service = self._service(mapped.reference)
            try:
                service.submit_many(reads)
                return canonical_report(service.drain())
            finally:
                with contextlib.suppress(ReproError):
                    service.close()
        finally:
            mapped.close()

    def _run_catalog(self, workdir: Path) -> tuple:
        from repro.cam.array import StoredReference
        from repro.refstore import ReferenceCatalog

        segments, reads = _workload()
        catalog = ReferenceCatalog()
        try:
            catalog.store("ref", StoredReference.encode(segments),
                          workdir / "reference.asmcap")
            service = self._service("ref", catalog=catalog)
            try:
                service.submit_many(reads)
                return canonical_report(service.drain())
            finally:
                with contextlib.suppress(ReproError):
                    service.close()
        finally:
            if catalog.stats().pinned_count:
                raise ServiceError(
                    "chaos scenario leaked a catalog lease"
                )
            catalog.close()

    def _run_frontend(self) -> tuple:
        from repro.service.frontend import MappingFrontend

        segments, reads = _workload()
        frontend = MappingFrontend(segments, _error_model())
        try:
            session = frontend.session(
                THRESHOLD, seed=SEED, micro_batch=MICRO_BATCH,
            )
            session.submit_many(reads)
            return canonical_report(session.drain())
        finally:
            with contextlib.suppress(ReproError):
                frontend.close()


_SERVICE_KINDS = ("poisoned_read", "slow_batch")
_STORE_KINDS = _SERVICE_KINDS + ("store_truncate", "store_crc_flip")

#: The chaos matrix: one scenario per route.  Every route's service
#: compacts its ledger, and no scenario result reads a ledger value.
SCENARIOS: "tuple[ChaosScenario, ...]" = (
    ChaosScenario(
        name="stream-batched-gemm", route="stream",
        fault_kinds=_SERVICE_KINDS,
    ),
    ChaosScenario(
        name="store-batched-gemm", route="store",
        fault_kinds=_STORE_KINDS,
    ),
    ChaosScenario(
        name="catalog-batched-gemm", route="catalog",
        fault_kinds=_SERVICE_KINDS + ("poisoned_open",),
    ),
    ChaosScenario(
        name="frontend-batched-gemm", route="frontend",
        fault_kinds=_SERVICE_KINDS,
    ),
)


def get_scenario(name: str) -> ChaosScenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise CamConfigError(
        f"unknown chaos scenario {name!r}; known: "
        f"{[s.name for s in SCENARIOS]}"
    )
