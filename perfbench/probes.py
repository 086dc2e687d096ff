"""Which public callables the traced run wraps, and the per-layer
metrics derived from their spans and counters.

Every probe patches the name where its caller resolves it: functions
imported by value are patched in the importing module
(``repro.cam.array.standard_normals``, ``repro.eval.sweeps
.build_dataset``, ...), methods on their class.
"""

from __future__ import annotations

from perfbench.spans import Probe, Tracer, self_times, uncovered_time


def _cells(args, kwargs, result):
    """Count cells compared: B*M mismatch counts over N bases each."""
    counts = result[0] if isinstance(result, tuple) else result
    return {"kernels.counts.cells": counts.size * args[0].cols}


def _normals(args, kwargs, result):
    return {"cam.noise.normals": result.size}


def _pairs(args, kwargs, result):
    """(query, row) pairs one search pass decided."""
    return {"cam.search.pairs": result.mismatch_counts.size}


PROBES: "tuple[Probe, ...]" = (
    Probe("arch.autotune", "repro.arch.autotune", "calibrate_kernel_backends"),
    Probe("cam.encode", "repro.cam.array", "StoredReference.encode"),
    Probe("cam.encode", "repro.cam.array", "CamArray.store"),
    # The encoding pass itself: nested under StoredReference.encode, or
    # run lazily by the first search after CamArray.store.
    Probe("cam.encode", "repro.cam.array", "encode_reference", calls=False),
    Probe("refstore.open", "repro.refstore.catalog", "ReferenceCatalog.borrow"),
    Probe("refstore.open", "repro.refstore.catalog", "open_stored_reference",
          calls=False),
    Probe("kernels.counts", "repro.cam.array", "StoredReference.counts_batch",
          work=_cells),
    Probe("kernels.counts", "repro.cam.array",
          "StoredReference.counts_batch_dual", work=_cells),
    Probe("cam.noise", "repro.cam.array", "standard_normals", work=_normals),
    Probe("cam.noise", "repro.cam.array", "fold_key_block"),
    Probe("cam.noise", "repro.cam.variation", "ChargeDomainVariation.sigma_vml"),
    Probe("cam.noise", "repro.cam.variation", "CurrentDomainVariation.sigma_vml"),
    Probe("cam.noise", "repro.cam.matchline", "ChargeDomainMatchline.ideal_voltage"),
    Probe("cam.noise", "repro.cam.matchline",
          "CurrentDomainMatchline.sampled_voltage"),
    Probe("cam.decide", "repro.cam.sense_amp", "SenseAmplifier.decide"),
    Probe("cam.decide", "repro.cam.sense_amp", "SenseAmplifier.decide_sweep"),
    Probe("cam.search", "repro.cam.array", "CamArray.search_batch", work=_pairs),
    Probe("cam.search", "repro.cam.array", "CamArray.search_sweep", work=_pairs),
    Probe("cost.record", "repro.cost.ledger", "CostLedger.record"),
    Probe("cost.energy_view", "repro.cost.views", "search_pass_energy_per_query"),
    Probe("core.match", "repro.core.matcher", "AsmCapMatcher.match_batch"),
    Probe("core.match", "repro.core.matcher", "AsmCapMatcher.match_sweep"),
    Probe("core.hdac", "repro.core.matcher", "hdac_correct_batch"),
    Probe("core.hdac", "repro.core.matcher", "hdac_correct_sweep"),
    Probe("core.report", "repro.core.pipeline", "ReadMappingPipeline.run_batched"),
    Probe("core.report.fold", "repro.core.pipeline", "MappingReport.add"),
    Probe("service.submit", "repro.service.stream",
          "StreamingMappingService.submit_many"),
    Probe("service.submit", "repro.service.frontend", "MappingSession.submit_many"),
    Probe("service.drain", "repro.service.frontend", "MappingSession.drain"),
    Probe("genome.dataset", "repro.eval.sweeps", "build_dataset"),
    Probe("eval.truth", "repro.eval.experiment", "label_dataset"),
    Probe("distance.banded", "repro.eval.ground_truth",
          "banded_edit_distance_batch"),
    Probe("eval.confusion", "repro.eval.experiment", "confusion_series"),
    Probe("baselines.edam", "repro.baselines.edam", "EdamMatcher.match_sweep"),
    Probe("baselines.kraken", "repro.baselines.kraken",
          "KrakenLikeClassifier.__init__"),
    Probe("baselines.kraken", "repro.baselines.kraken",
          "KrakenLikeClassifier.classify_batch"),
)

#: Probes none of the workloads reaches, with the reason.
#: ``hdac_correct_sweep`` would need a sweep in condition A: HDAC's
#: ``p`` stays below the matcher's disable cut at every condition-B
#: threshold, so fig7-sweep never corrects (frontend-multi's serving
#: path covers HDAC).  ``StoredReference.encode`` runs only in the
#: load generator, before any timing.
UNREACHED_PROBES = {
    "repro.core.matcher:hdac_correct_sweep": "HDAC inert in condition B",
    "repro.cam.array:StoredReference.encode":
        "the load generator encodes before timing",
}

#: Span names each workload must enter at least once in its traced run.
WORKLOAD_SPANS: "dict[str, frozenset[str]]" = {
    "map-stream": frozenset({
        "arch.autotune", "cam.encode", "kernels.counts", "cam.noise",
        "cam.decide", "cam.search", "cost.record", "cost.energy_view",
        "core.match", "core.report", "core.report.fold", "service.submit",
    }),
    "fig7-sweep": frozenset({
        "arch.autotune", "cam.encode", "kernels.counts", "cam.noise",
        "cam.decide", "cam.search", "cost.record", "cost.energy_view",
        "core.match", "genome.dataset", "eval.truth", "distance.banded",
        "eval.confusion", "baselines.edam", "baselines.kraken",
    }),
    "frontend-multi": frozenset({
        "arch.autotune", "refstore.open", "kernels.counts", "cam.noise",
        "cam.decide", "cam.search", "cost.record", "cost.energy_view",
        "core.match", "core.hdac", "core.report", "core.report.fold",
        "service.submit", "service.drain",
    }),
}


def entered_spans(tracer: Tracer) -> "set[str]":
    """Span names whose probes recorded at least one call."""
    return {probe.span for probe in PROBES
            if tracer.counters[f"probe:{probe.key}"] > 0}


#: Per-layer metrics in output order: (name, unit).
LAYER_METRICS: "tuple[tuple[str, str], ...]" = (
    ("arch.autotune.self_s", "s"),
    ("cam.encode.calls", "count"),
    ("cam.encode.self_s", "s"),
    ("refstore.open.calls", "count"),
    ("refstore.open.self_s", "s"),
    ("refstore.n_encodes", "count"),
    ("kernels.counts.calls", "count"),
    ("kernels.counts.self_s", "s"),
    ("kernels.counts.cells", "count"),
    ("cam.noise.self_s", "s"),
    ("cam.noise.normals", "count"),
    ("cam.noise.normals_per_pair", "ratio"),
    ("cam.decide.self_s", "s"),
    ("cam.search.calls", "count"),
    ("cam.search.self_s", "s"),
    ("cost.record.calls", "count"),
    ("cost.record.self_s", "s"),
    ("cost.energy_view.self_s", "s"),
    ("core.match.calls", "count"),
    ("core.match.self_s", "s"),
    ("core.hdac.self_s", "s"),
    ("core.passes.ed_star", "count"),
    ("core.passes.hdac", "count"),
    ("core.passes.tasr", "count"),
    ("core.report.self_s", "s"),
    ("core.report.fold_calls", "count"),
    ("core.report.fold_self_s", "s"),
    ("service.submit.self_s", "s"),
    ("service.drain.wait_s", "s"),
    ("genome.dataset.self_s", "s"),
    ("eval.truth.self_s", "s"),
    ("distance.banded.self_s", "s"),
    ("eval.confusion.self_s", "s"),
    ("baselines.edam.self_s", "s"),
    ("baselines.kraken.self_s", "s"),
    ("bench.untraced_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: Ledger event class -> core.passes metric.
PASS_CLASSES = {"EdStarPass": "core.passes.ed_star",
                "HdacPass": "core.passes.hdac",
                "TasrRotationPass": "core.passes.tasr"}


def layer_values(tracer: Tracer, window: "tuple[float, float]",
                 extra: "dict[str, float]") -> "dict[str, float]":
    """Every :data:`LAYER_METRICS` value from one traced phase.

    *window* is the traced timed loop (for ``bench.untraced_s``);
    *extra* supplies what spans cannot: ``refstore.n_encodes``,
    ``core.passes.*`` and ``bench.trace_overhead``.
    """
    spans = tracer.spans
    own = self_times(spans)
    counters = tracer.counters
    drain_wait = sum(s.end - s.start for s in spans if s.name == "service.drain")
    pairs = counters["cam.search.pairs"]
    values = {
        "cam.noise.normals_per_pair": (counters["cam.noise.normals"] / pairs
                                       if pairs else 0.0),
        "core.report.fold_calls": counters["core.report.fold.calls"],
        "core.report.fold_self_s": own.get("core.report.fold", 0.0),
        "service.drain.wait_s": drain_wait,
        "bench.untraced_s": uncovered_time(spans, window),
    }
    for name, _unit in LAYER_METRICS:
        if name in values or name in extra:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = own.get(layer, 0.0)
        else:
            values[name] = counters[name]
    values.update(extra)
    return values
