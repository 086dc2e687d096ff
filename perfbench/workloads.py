"""The benchmark's three workloads.

Each workload generates its inputs from the seed (untimed), then
exposes the same life cycle to the runner in ``run.py``:

* ``setup()`` — everything from inputs in hand to the first unit of
  work done: service/frontend construction (which runs the kernel
  autotune and encodes or opens the reference) plus one warm-up unit;
* ``unit(u)`` — one timed unit of work, returning the reads it
  completed; ``observe(u)`` — untimed bookkeeping after it;
* ``latencies(unit_latencies)`` — the latency samples ``batch_p50_ms``
  and ``batch_p90_ms`` are taken from;
* ``check()`` — correctness of the kept outputs, outside any timing:
  ``(units checked, units whose check failed, notes)``;
* ``quality()`` — the modelled energy, latency and accuracy figures,
  taken from units below ``min_units`` only, so they repeat exactly for
  one seed;
* ``layer_extra()`` — per-layer values spans cannot give (ledger pass
  counts, encode counters);
* ``teardown()`` — release threads, leases and files of the last setup.

All load comes from the calling thread; the program's own pools (the
frontend's dispatch workers, the sweep's Monte-Carlo workers) keep
their autotuned sizes.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

import repro.eval.sweeps as sweeps
from repro.arch.autotune import sweep_worker_count
from repro.baselines.edam import EdamMatcher
from repro.cam.array import CamArray, StoredReference
from repro.core.matcher import AsmCapMatcher
from repro.core.pipeline import ReadMappingPipeline
from repro.cost.views import search_stats
from repro.distance import banded_edit_distance_batch
from repro.eval.confusion import confusion_from_decisions
from repro.eval.experiment import (
    asmcap_full_system,
    asmcap_plain_system,
    edam_system,
    kraken_system,
)
from repro.genome.datasets import build_dataset
from repro.refstore import ReferenceCatalog, save_stored_reference
from repro.service.frontend import MappingFrontend
from repro.service.stream import StreamingMappingService

from perfbench.probes import PASS_CLASSES

#: The paper's array geometry: 256 rows x 256 bases.
ROWS = COLS = 256
#: Distinct reads a serving workload cycles through.
POOL_READS = 2048
#: Latency samples every end-to-end run collects, so p90 has 10 samples
#: beyond it.
MIN_SAMPLES = 100
#: Units after which the traced run snapshots ledger pass counts.
PASS_UNITS = 10


def _seeds(seed: int, n: int) -> "list[int]":
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(1 << 20, 1 << 30, n)]


def _pass_metrics(pass_counts: "dict[str, int]") -> "dict[str, float]":
    out = dict.fromkeys(PASS_CLASSES.values(), 0)
    for cls, n in pass_counts.items():
        out[PASS_CLASSES[cls]] += n
    return out


def _f1(predicted: "list[np.ndarray]", truth: "list[np.ndarray]") -> float:
    return confusion_from_decisions(np.concatenate(predicted),
                                    np.concatenate(truth)).f1


def _edam_decisions(segments: np.ndarray, seed: int, reads: np.ndarray,
                    threshold: int, keys: "list[int]") -> np.ndarray:
    """EDAM's (B, M) decisions for the same reads at one threshold."""
    matcher = EdamMatcher(array=CamArray(rows=segments.shape[0],
                                         cols=segments.shape[1],
                                         domain="current", seed=seed))
    matcher.store(segments)
    return matcher.match_sweep(reads, [threshold], query_keys=keys)[0]


def _mapping_rows(mappings) -> "list[tuple]":
    """What the map-stream check compares per read."""
    return [(m.read_index, m.matched_rows, m.outcome.energy_joules,
             m.outcome.latency_ns) for m in mappings]


def _pool_batches(condition: str, seed: int, micro_batch: int):
    """The serving workloads' read pool: dataset and its micro-batches."""
    dataset = build_dataset(condition, n_reads=POOL_READS, read_length=COLS,
                            n_segments=ROWS, seed=seed)
    codes = [record.read.codes for record in dataset.reads]
    return dataset, [codes[i:i + micro_batch]
                     for i in range(0, POOL_READS, micro_batch)]


@dataclass
class Quality:
    """Modelled energy, latency and accuracy, with their sample sizes."""

    sim_pj_per_read: float
    sim_ns_per_read: float
    sim_reads: int
    f1_asmcap: float
    f1_edam: float
    f1_samples: int

    @classmethod
    def from_totals(cls, energy_j: float, latency_ns: float, n_reads: int,
                    f1_asmcap: float, f1_edam: float,
                    f1_samples: int) -> "Quality":
        return cls(energy_j / n_reads * 1e12, latency_ns / n_reads, n_reads,
                   f1_asmcap, f1_edam, f1_samples)


class MapStream:
    """One streaming service, one caller, one micro-batch per call."""

    name = "map-stream"
    condition = "B"
    threshold = 8
    micro_batch = 256
    min_units = MIN_SAMPLES
    #: Coprime with the pool's 8 micro-batches, so the checked units
    #: below min_units cover every pool read.
    check_stride = 9

    def __init__(self, seed: int, workdir: str):
        data_seed, self.service_seed, self.edam_seed = _seeds(seed, 3)
        self.dataset, self.batches = _pool_batches(
            self.condition, data_seed, self.micro_batch)
        self.service: "StreamingMappingService | None" = None

    def setup(self) -> None:
        self.teardown()
        self.kept: "dict[int, tuple]" = {}
        self.sim_report = None
        self.pass_counts: "dict[str, int]" = {}
        self.service = StreamingMappingService(
            self.dataset.segments, self.dataset.model, self.threshold,
            micro_batch=self.micro_batch, retain_mappings=False,
            seed=self.service_seed)
        self.service.submit_many(self.batches[0])

    def _batch(self, u: int) -> "tuple[int, list[np.ndarray]]":
        """(first stream index, reads) of timed unit *u* (0 = warm-up)."""
        k = u + 1
        return k * self.micro_batch, self.batches[k % len(self.batches)]

    def unit(self, u: int) -> int:
        return self.service.submit_many(self._batch(u)[1])

    def latencies(self, unit_latencies: "list[float]") -> "list[float]":
        return unit_latencies

    def observe(self, u: int) -> None:
        if u < self.min_units and u % self.check_stride == 0:
            self.kept[u] = self.service.last_batch_mappings
        if self.sim_report is None and u >= self.min_units - 1:
            self.sim_report = self.service.report
        if u == PASS_UNITS - 1:
            self.pass_counts = self.service.stats().pass_counts

    def check(self) -> "tuple[int, set[int], list[str]]":
        """Each kept micro-batch == one ``run_batched`` call with the
        same seed and ``first_read_index``: matched rows, per-read
        energy and per-read latency."""
        stored = StoredReference.encode(self.dataset.segments)
        failed = set()
        for u, mappings in self.kept.items():
            first, reads = self._batch(u)
            pipeline = ReadMappingPipeline(AsmCapMatcher.over_stored(
                stored, self.dataset.model, seed=self.service_seed))
            expected = pipeline.run_batched(reads, self.threshold,
                                            first_read_index=first)
            if _mapping_rows(mappings) != _mapping_rows(expected.mappings):
                failed.add(u)
        return len(self.kept), failed, []

    def quality(self) -> Quality:
        """Modelled energy and latency over the first min_units units;
        F1 of the kept units against exact edit distances."""
        truth_all = banded_edit_distance_batch(
            self.dataset.segments,
            np.stack([r.read.codes for r in self.dataset.reads]),
            self.threshold) <= self.threshold
        asm, edam, truth = [], [], []
        for u, mappings in self.kept.items():
            first, reads = self._batch(u)
            pool_first = first % POOL_READS
            asm.append(np.stack([m.outcome.decisions for m in mappings]))
            edam.append(_edam_decisions(
                self.dataset.segments, self.edam_seed, np.stack(reads),
                self.threshold, list(range(first, first + len(reads)))))
            truth.append(truth_all[pool_first:pool_first + len(reads)])
        report = self.sim_report
        return Quality.from_totals(
            report.total_energy_joules, report.total_latency_ns,
            report.n_reads, _f1(asm, truth), _f1(edam, truth),
            sum(len(t) for t in truth))

    def layer_extra(self) -> "dict[str, float]":
        return {"refstore.n_encodes":
                self.service.pipeline.matcher.array.stored.n_encodes,
                **_pass_metrics(self.pass_counts)}

    def choices(self) -> dict:
        return {"micro_batch": self.service.micro_batch,
                "backend": self.service.backend}

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class FrontendMulti:
    """One frontend over one catalog reference, four lockstep sessions."""

    name = "frontend-multi"
    #: Condition A, where HDAC runs: its p clears the matcher's disable
    #: cut at T <= 8 (at every condition-B threshold it does not).
    condition = "A"
    #: All below the matcher's TASR lower bound (52 for condition A at
    #: N=256); T=4 and 8 add the HDAC pass, T=32 is the widest.
    thresholds = (4, 8, 16, 32)
    micro_batch = 128
    min_units = MIN_SAMPLES
    #: Rounds after which session reports are compared with standalone
    #: services (round 0 is the warm-up).
    checkpoints = (2, 8, 24)

    def __init__(self, seed: int, workdir: str):
        data_seed, *seeds = _seeds(seed, 1 + 2 * len(self.thresholds))
        self.session_seeds = seeds[:len(self.thresholds)]
        self.edam_seeds = seeds[len(self.thresholds):]
        self.dataset, self.batches = _pool_batches(
            self.condition, data_seed, self.micro_batch)
        # The load generator encodes and saves the reference once; every
        # setup then opens the file through a fresh catalog.
        os.makedirs(workdir, exist_ok=True)
        self.store_path = os.path.join(workdir, f"frontend-{seed}.asmref")
        save_stored_reference(self.store_path,
                              StoredReference.encode(self.dataset.segments))
        self.frontend: "MappingFrontend | None" = None
        self.catalog: "ReferenceCatalog | None" = None

    def setup(self) -> None:
        self.teardown()
        self.kept: "dict[int, list]" = {}
        self.f1_mappings: "list[tuple]" = []
        self.sim_reports: "list" = []
        self.pass_counts: "dict[str, int]" = {}
        self.catalog = ReferenceCatalog()
        self.catalog.add("ref", self.store_path)
        self.frontend = MappingFrontend(None, self.dataset.model,
                                        catalog=self.catalog)
        self.sessions = [
            self.frontend.session(threshold, seed=seed,
                                  micro_batch=self.micro_batch,
                                  retain_mappings=False, reference="ref")
            for threshold, seed in zip(self.thresholds, self.session_seeds,
                                       strict=True)
        ]
        self._round(0)

    def _reads(self, r: int, i: int) -> "list[np.ndarray]":
        return self.batches[(r * len(self.sessions) + i) % len(self.batches)]

    def _round(self, r: int) -> None:
        """Submit one micro-batch per session, then drain every session."""
        for i, session in enumerate(self.sessions):
            session.submit_many(self._reads(r, i))
        self.last_reports = [session.drain() for session in self.sessions]

    def unit(self, u: int) -> int:
        self._round(u + 1)
        return self.micro_batch * len(self.sessions)

    def latencies(self, unit_latencies: "list[float]") -> "list[float]":
        return unit_latencies

    def observe(self, u: int) -> None:
        r = u + 1
        if r in self.checkpoints:
            self.kept[r] = self.last_reports
        if r == 1:
            self.f1_mappings = [s.last_batch_mappings for s in self.sessions]
        if not self.sim_reports and u >= self.min_units - 1:
            self.sim_reports = self.last_reports
        if u == PASS_UNITS - 1:
            totals: "dict[str, int]" = {}
            for session in self.sessions:
                for cls, n in session.stats().pass_counts.items():
                    totals[cls] = totals.get(cls, 0) + n
            self.pass_counts = totals

    def check(self) -> "tuple[int, set[int], list[str]]":
        """Each session's report at every kept checkpoint == a standalone
        service fed the same reads with the same seed and threshold; the
        frontend encoded nothing."""
        failed = set()
        notes = []
        encodes = self.frontend.encode_count()
        if encodes != 0:
            notes.append(f"frontend encode_count={encodes}, expected 0")
            failed.update(r - 1 for r in self.kept)
        last = max(self.kept, default=-1)
        for i, (threshold, seed) in enumerate(
                zip(self.thresholds, self.session_seeds, strict=True)):
            with StreamingMappingService(
                    self.dataset.segments, self.dataset.model, threshold,
                    micro_batch=self.micro_batch, retain_mappings=False,
                    seed=seed) as service:
                for r in range(last + 1):
                    service.submit_many(self._reads(r, i))
                    if r in self.kept and service.drain() != self.kept[r][i]:
                        failed.add(r - 1)
        return len(self.kept), failed, notes

    def quality(self) -> Quality:
        """Modelled energy and latency over the first min_units rounds;
        F1 of each session's round-1 micro-batch at its own threshold."""
        asm, edam, truth = [], [], []
        for i, mappings in enumerate(self.f1_mappings):
            threshold = self.thresholds[i]
            reads = np.stack(self._reads(1, i))
            first = self.micro_batch  # round 1 of every session
            asm.append(np.stack([m.outcome.decisions for m in mappings]))
            edam.append(_edam_decisions(
                self.dataset.segments, self.edam_seeds[i], reads, threshold,
                list(range(first, first + len(reads)))))
            truth.append(banded_edit_distance_batch(
                self.dataset.segments, reads, threshold) <= threshold)
        return Quality.from_totals(
            sum(r.total_energy_joules for r in self.sim_reports),
            sum(r.total_latency_ns for r in self.sim_reports),
            sum(r.n_reads for r in self.sim_reports),
            _f1(asm, truth), _f1(edam, truth), sum(len(t) for t in truth))

    def layer_extra(self) -> "dict[str, float]":
        return {"refstore.n_encodes": self.frontend.encode_count(),
                **_pass_metrics(self.pass_counts)}

    def choices(self) -> dict:
        return {"micro_batch": self.micro_batch,
                "pool_workers": self.frontend.pool_workers,
                "backend": self.sessions[0].pipeline.backend}

    def teardown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.catalog.close()
            self.frontend = self.catalog = None


@dataclass
class _Capture:
    name: str
    seed: int
    dataset: object
    decisions: np.ndarray  # (T, check_reads, M) slice of decide_sweep


@dataclass
class _RecordedSystem:
    """A Fig. 7 system that reports its sweep outputs to the workload."""

    workload: "Fig7Sweep"
    unit: int
    name: str
    system: object
    dataset: object
    seed: int

    def decide_sweep(self, reads: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
        decisions = self.system.decide_sweep(reads, thresholds)
        self.workload.record(self, decisions, reads.shape[0])
        return decisions


class Fig7Sweep:
    """``run_sweep`` over the four Fig. 7 systems, condition B.

    One unit is one ``run_sweep`` call with the Monte-Carlo shape of
    ``run_sweep``'s and ``run_fig7``'s defaults (3 runs x 96 reads).
    Its latency samples are single Monte-Carlo runs: from the run's
    ``build_dataset`` call (the workload stamps it through a thin
    wrapper on ``repro.eval.sweeps.build_dataset``) to its last system's
    ``decide_sweep`` returning.
    """

    name = "fig7-sweep"
    condition = "B"
    thresholds = list(range(2, 17, 2))
    n_runs = 3
    n_reads = 96
    #: Calls whose Monte-Carlo runs give MIN_SAMPLES latency samples.
    min_units = math.ceil(MIN_SAMPLES / n_runs)
    check_stride = 10
    check_reads = 8
    factories = {
        "edam": edam_system,
        "asmcap_plain": asmcap_plain_system,
        "asmcap_full": asmcap_full_system,
        "kraken": kraken_system,
    }
    #: ``evaluate_all`` runs the systems in this order; the last one
    #: ends a Monte-Carlo run.
    last_system = "kraken"
    #: Spacing of per-unit seeds: far above run_sweep's own per-run and
    #: per-system seed offsets, so units never share a dataset.
    seed_stride = 15485863

    def __init__(self, seed: int, workdir: str):
        (self.base_seed,) = _seeds(seed, 1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: "tuple | None" = None
        self.current_unit = -1

    def _factory(self, name: str):
        real = self.factories[name]
        unit = self.current_unit

        def build(dataset, seed):
            return _RecordedSystem(self, unit, name, real(dataset, seed),
                                   dataset, seed)

        return build

    def record(self, recorded: _RecordedSystem, decisions: np.ndarray,
               n_reads: int) -> None:
        """Keep run latencies, check samples, ASMCap full's modelled
        energy, latency and pass counts, and encode counts; called from
        the sweep's workers."""
        u = recorded.unit
        if u >= 0 and recorded.name == self.last_system:
            elapsed = time.perf_counter() - self._local.start
            with self._lock:
                self.run_latencies.append(elapsed)
        if not 0 <= u < self.min_units:
            return
        with self._lock:
            if u % self.check_stride == 0:
                self.captures.setdefault(u, []).append(_Capture(
                    recorded.name, recorded.seed, recorded.dataset,
                    np.array(decisions[:, :self.check_reads])))
            matcher = getattr(recorded.system, "matcher", None)
            if matcher is None:
                return
            if u < PASS_UNITS:
                self.n_encodes += matcher.array.stored.n_encodes
            if recorded.name == "asmcap_full":
                ledger = matcher.array.ledger
                stats = search_stats(ledger)
                # Keyed, and summed in key order by quality(): the
                # workers finish in no fixed order.
                self.sim_totals[(u, recorded.seed)] = (
                    stats.total_energy_joules, stats.total_latency_ns,
                    n_reads)
                if u < PASS_UNITS:
                    for cls, n in ledger.pass_counts().items():
                        self.pass_counts[cls] = self.pass_counts.get(cls, 0) + n

    def _sweep(self, u: int):
        self.current_unit = u
        systems = {name: self._factory(name) for name in self.factories}
        return sweeps.run_sweep(
            self.condition, systems, self.thresholds, n_runs=self.n_runs,
            n_reads=self.n_reads, read_length=COLS, n_segments=ROWS,
            seed=self.base_seed + (u + 1) * self.seed_stride)

    def _stamp_runs(self) -> None:
        """Wrap ``build_dataset`` where ``run_sweep`` resolves it, to
        stamp each Monte-Carlo run's start on its worker thread."""
        real = sweeps.build_dataset
        local = self._local

        def build_dataset(*args, **kwargs):
            local.start = time.perf_counter()
            return real(*args, **kwargs)

        self._patched = (real, build_dataset)
        sweeps.build_dataset = build_dataset

    def setup(self) -> None:
        self.teardown()
        self.captures: "dict[int, list[_Capture]]" = {}
        self.run_latencies: "list[float]" = []
        self.sim_totals: "dict[tuple[int, int], tuple[float, float, int]]" = {}
        self.pass_counts: "dict[str, int]" = {}
        self.n_encodes = 0
        self.f1: "list[tuple[float, float]]" = []
        self._stamp_runs()
        self._sweep(-1)

    def unit(self, u: int) -> int:
        self.last_result = self._sweep(u)
        return self.n_runs * self.n_reads

    def latencies(self, unit_latencies: "list[float]") -> "list[float]":
        return self.run_latencies

    def observe(self, u: int) -> None:
        if u < self.min_units:
            systems = self.last_result.systems
            self.f1.append((systems["asmcap_full"].mean_f1(),
                            systems["edam"].mean_f1()))

    def check(self) -> "tuple[int, set[int], list[str]]":
        """For the first Monte-Carlo run of each kept unit, every
        system's ``decide_sweep`` slice == scalar ``decide(read, t,
        read_index=q)`` on a fixed read sample."""
        failed = set()
        for u, captures in self.captures.items():
            # Seeds grow with the run index, so the smallest seed per
            # system is its first Monte-Carlo run.
            first: "dict[str, _Capture]" = {}
            for capture in sorted(captures, key=lambda c: c.seed):
                first.setdefault(capture.name, capture)
            for capture in first.values():
                system = self.factories[capture.name](capture.dataset,
                                                      capture.seed)
                reads = capture.dataset.reads[:self.check_reads]
                for t_index, threshold in enumerate(self.thresholds):
                    for q, record in enumerate(reads):
                        scalar = system.decide(record.read.codes, threshold,
                                               read_index=q)
                        if not np.array_equal(
                                scalar, capture.decisions[t_index, q]):
                            failed.add(u)
        return len(self.captures), failed, []

    def quality(self) -> Quality:
        """ASMCap full's modelled energy and latency per read and both
        systems' mean F1, over the first min_units sweeps."""
        asmcap, edam = np.mean(self.f1, axis=0)
        energy_j = latency_ns = 0.0
        sim_reads = 0
        for key in sorted(self.sim_totals):
            energy, latency, n_reads = self.sim_totals[key]
            energy_j += energy
            latency_ns += latency
            sim_reads += n_reads
        return Quality.from_totals(
            energy_j, latency_ns, sim_reads, float(asmcap), float(edam),
            len(self.f1) * self.n_runs * self.n_reads)

    def layer_extra(self) -> "dict[str, float]":
        return {"refstore.n_encodes": self.n_encodes,
                **_pass_metrics(self.pass_counts)}

    def choices(self) -> dict:
        return {"sweep_workers": sweep_worker_count(self.n_runs),
                "n_runs": self.n_runs, "n_reads": self.n_reads}

    def teardown(self) -> None:
        """Remove the run-start wrapper, unless a tracer installed over
        it has already put the original back."""
        if self._patched is not None:
            real, wrapper = self._patched
            if sweeps.build_dataset is wrapper:
                sweeps.build_dataset = real
            self._patched = None


WORKLOADS = {cls.name: cls for cls in (MapStream, Fig7Sweep, FrontendMulti)}
